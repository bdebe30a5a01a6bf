package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/trace"
)

// gatewayConfig is the serving configuration shared by the in-process
// workloads and the references they are checked against.
func gatewayConfig(dep *core.Deployment, window int, reg *obs.Registry) service.Config {
	cfg := service.ConfigFromDeployment(dep, gatewaySeed)
	cfg.Shards = procs
	cfg.FlushEvery = window
	cfg.Obs = reg
	return cfg
}

// geoiDeployment is GEO-I at the paper's headline ε ≈ 0.01.
func geoiDeployment() (*core.Deployment, error) {
	return core.NewDeployment(lppm.NewGeoIndistinguishability(), lppm.Params{lppm.EpsilonParam: 0.01})
}

// drainGateway consumes a gateway's Output until it closes, handing each
// window to fn (nil discards). It returns a channel closed on exit.
func drainGateway(g *service.Gateway, fn func(service.Window, time.Time)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := range g.Output() {
			if fn != nil {
				fn(w, time.Now())
			}
		}
	}()
	return done
}

// closeGateway closes g while something drains its Output, so the drain
// flushes are never stuck behind an absent consumer. Idempotent.
func closeGateway(g *service.Gateway) error {
	done := drainGateway(g, nil)
	err := g.Close()
	<-done
	return err
}

// reference protects records [from, counts[u]) of every user through a
// fresh journal-less gateway — the never-killed, journal-off, in-process
// run the measured outputs must equal — and returns each user's digests.
func reference(ctx context.Context, cfg service.Config, f *fleet, from int, counts []int) ([]*stream, error) {
	cfg.Obs = obs.Nop()
	cfg.Tracer = nil
	g, err := service.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newStreams(len(f.users), cfg.FlushEvery)
	done := drainGateway(g, func(w service.Window, _ time.Time) {
		for _, r := range w.Records {
			out[f.index[r.User]].add(r)
		}
	})
	maxN := 0
	for _, n := range counts {
		maxN = max(maxN, n)
	}
	var ierr error
feed:
	for i := from; i < maxN; i++ {
		for u, n := range counts {
			if i < n {
				if ierr = g.Ingest(f.record(u, i)); ierr != nil {
					break feed
				}
			}
		}
	}
	cerr := g.Close()
	<-done
	return out, errors.Join(ierr, cerr)
}

// cycle is one pass of an in-process gateway workload: set up, ingest a
// fixed number of rounds from producer goroutines while one goroutine
// drains Output (and, optionally, another times Gateway.Swap), close, then
// restart and feed one more record per user, which makes every user's
// stream rebuild.
type cycle struct {
	cfg     service.Config
	journal *service.JournalConfig // nil: journal off
	f       *fleet
	rounds  int // records per user before the restart; a multiple of the window
	// swapEvery > 0 re-installs swapTo that often while the producers
	// run, timing each Swap. swapTo serves the same parameters, so the
	// protected output does not change.
	swapEvery time.Duration
	swapTo    *core.Deployment
	rec       *recorder
	timedFS   *timedFS // traced half with a journal only
	phase     int      // window id namespace
	restores  bool     // time lppm.RestoreUserStream at the journaled positions
}

// cycleResult is what one cycle measured.
type cycleResult struct {
	setup      time.Duration
	ingestWall time.Duration // first Ingest → last window delivered
	delivered  int
	cpu        float64   // process CPU seconds over ingestWall
	windowLat  []float64 // ns, Ingest call of the closing record → window delivered
	swapNS     []float64
	recover    time.Duration // Recover/New → every user's stream rebuilt
	recoverOp  time.Duration // the Recover/New call alone
	restoreNS  []float64     // per user, lppm.RestoreUserStream
	ingestNS   []int64       // traced: every Ingest call
	serviceNS  []int64       // traced: Ingest return of the closing record → delivered
	stats      service.Stats
	got, post  []*stream
	// traced, with a journal: segment writes and fsyncs from the first
	// Ingest through Close, and the bytes they wrote
	fsWrite, fsSync []int64
	fsBytes         int64
}

func (c *cycle) open(ctx context.Context) (*service.Gateway, error) {
	if c.journal == nil {
		return service.New(ctx, c.cfg)
	}
	g, _, err := service.Recover(ctx, c.cfg, *c.journal)
	return g, err
}

func (c *cycle) run(ctx context.Context, b *bench) (*cycleResult, error) {
	res := &cycleResult{}
	window := c.cfg.FlushEvery
	nu := len(c.f.users)
	t0 := time.Now()
	g, err := c.open(ctx)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)
	dismiss := b.onTeardown("gateway", func() error { return closeGateway(g) })
	if c.timedFS != nil {
		c.timedFS.reset()
	}

	// closeStart[u][k] is when the Ingest of window k's closing record
	// began and closeEnd when it returned, written by the producers;
	// arrive[u][k] is when the window came out, written by the drainer.
	// They are combined only after both sides are done.
	nw := c.rounds / window
	closeStart := make([][]time.Time, nu)
	closeEnd := make([][]time.Time, nu)
	arrive := make([][]time.Time, nu)
	for u := range closeStart {
		closeStart[u] = make([]time.Time, nw)
		closeEnd[u] = make([]time.Time, nw)
		arrive[u] = make([]time.Time, nw)
	}
	res.got = newStreams(nu, window)
	want := nu * c.rounds
	var lastArrival time.Time
	allIn := make(chan struct{})
	delivered := 0
	done := drainGateway(g, func(w service.Window, at time.Time) {
		if len(w.Records) == 0 {
			return
		}
		u := c.f.index[w.Records[0].User]
		for _, r := range w.Records {
			res.got[u].add(r)
		}
		if n := res.got[u].n; n%window == 0 && n <= c.rounds {
			arrive[u][n/window-1] = at
		}
		delivered += len(w.Records)
		if delivered == want {
			lastArrival = at
			close(allIn)
		}
	})

	stopSwaps := make(chan struct{})
	swapsDone := make(chan error, 1)
	if c.swapEvery > 0 {
		go func() { swapsDone <- c.swapLoop(g, stopSwaps, &res.swapNS) }()
	} else {
		swapsDone <- nil
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	ingestNS := make([][]int64, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < c.rounds; i++ {
				closing := (i+1)%window == 0
				for u := p; u < nu; u += procs {
					rec := c.f.record(u, i)
					var ts time.Time
					if closing || c.rec != nil {
						ts = time.Now()
					}
					if closing {
						closeStart[u][i/window] = ts
					}
					if err := g.Ingest(rec); err != nil {
						errs[p] = err
						return
					}
					if c.rec != nil {
						te := time.Now()
						ingestNS[p] = append(ingestNS[p], int64(te.Sub(ts)))
						if closing {
							closeEnd[u][i/window] = te
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(stopSwaps)
	errs = append(errs, <-swapsDone)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Done sending, the producers push out what the shards still stage,
	// as the server does when a stream ends: one FlushUser per shard
	// (every user's window is complete, so it flushes no partial one).
	// Otherwise the last batch waits for the stage ticker, and the
	// cycle's time grows in StageInterval steps of 100 ms.
	for _, u := range shardRepresentatives(c.f.users, c.cfg.Shards) {
		if err := g.FlushUser(u); err != nil {
			return nil, fmt.Errorf("end-of-input flush: %w", err)
		}
	}
	stall := time.NewTimer(stallLimit)
	defer stall.Stop()
	select {
	case <-allIn:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-stall.C:
		return nil, fmt.Errorf("%v after the last Ingest, protected records are still missing", stallLimit)
	}
	res.cpu = cpuSeconds() - cpu0
	res.ingestWall = lastArrival.Sub(start)
	res.delivered = delivered
	for _, xs := range ingestNS {
		res.ingestNS = append(res.ingestNS, xs...)
	}
	for u := range arrive {
		for k, at := range arrive[u] {
			res.windowLat = append(res.windowLat, float64(at.Sub(closeStart[u][k])))
			if c.rec == nil {
				continue
			}
			res.serviceNS = append(res.serviceNS, int64(at.Sub(closeEnd[u][k])))
			if u%spanSample == 0 {
				id := windowID(c.phase, c.f.users[u], uint64(k))
				c.rec.add("e2e.window", id, c.rec.at(closeStart[u][k]), c.rec.at(at))
				c.rec.add("service.ingest", id, c.rec.at(closeStart[u][k]), c.rec.at(closeEnd[u][k]))
				c.rec.add("service.window", id, c.rec.at(closeEnd[u][k]), c.rec.at(at))
			}
		}
	}
	res.stats = g.Stats()
	if err := g.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	<-done
	dismiss()
	if fs := c.timedFS; fs != nil {
		fs.mu.Lock()
		res.fsWrite, res.fsSync, res.fsBytes = fs.writeNS, fs.syncNS, fs.bytes
		fs.mu.Unlock()
		fs.reset()
	}

	// Restart: reopen (the journal replays; without one the streams
	// start fresh) and feed each user one more record. The first record
	// of a user rebuilds its stream — with a journal, lazily re-seeked to
	// the checkpointed rng position. A FlushUser per shard travels its
	// shard queue behind every record ingested there, so when both
	// return every user's stream has been rebuilt. A restarted process
	// starts on an empty heap, so the first run's garbage is collected
	// before the restart is timed rather than during it.
	runtime.GC()
	t0 = time.Now()
	g2, err := c.open(ctx)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	res.recoverOp = time.Since(t0)
	dismiss2 := b.onTeardown("restarted gateway", func() error { return closeGateway(g2) })
	res.post = newStreams(nu, window)
	done2 := drainGateway(g2, func(w service.Window, _ time.Time) {
		for _, r := range w.Records {
			res.post[c.f.index[r.User]].add(r)
		}
	})
	for u := 0; u < nu; u++ {
		if err := g2.Ingest(c.f.record(u, c.rounds)); err != nil {
			return nil, fmt.Errorf("restart ingest: %w", err)
		}
	}
	for _, u := range shardRepresentatives(c.f.users, c.cfg.Shards) {
		if err := g2.FlushUser(u); err != nil {
			return nil, fmt.Errorf("restart barrier: %w", err)
		}
	}
	if g2.Stats().Users < nu {
		// The barrier assumes the gateway's documented FNV routing; if
		// routing ever changes, wait for the count instead.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for g2.Stats().Users < nu {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-tick.C:
			}
		}
	}
	res.recover = time.Since(t0)
	if c.rec != nil {
		id, open := uint64(c.phase)<<32|1, "service.new"
		if c.journal != nil {
			open = "journal.recover_open"
		}
		c.rec.add("e2e.recover", id, c.rec.at(t0), c.rec.at(t0.Add(res.recover)))
		c.rec.add(open, id, c.rec.at(t0), c.rec.at(t0.Add(res.recoverOp)))
		c.rec.add("rng.rehydrate", id, c.rec.at(t0.Add(res.recoverOp)), c.rec.at(t0.Add(res.recover)))
	}
	if err := g2.Close(); err != nil {
		return nil, fmt.Errorf("restart close: %w", err)
	}
	<-done2
	dismiss2()
	if c.restores && g2.Journal() != nil {
		res.restoreNS = timeRestores(g2, c.cfg)
	}
	return res, nil
}

// spanSample keeps the traced window spans of one user in spanSample, so
// the Chrome trace of thousands of users stays loadable; the per-layer
// percentiles still use every window.
const spanSample = 16

// swapLoop calls Swap at once and then every swapEvery until stop
// closes, appending each call's duration to ns.
func (c *cycle) swapLoop(g *service.Gateway, stop <-chan struct{}, ns *[]float64) error {
	tick := time.NewTicker(c.swapEvery)
	defer tick.Stop()
	for {
		t := time.Now()
		if err := g.Swap(c.swapTo); err != nil {
			return fmt.Errorf("swap: %w", err)
		}
		*ns = append(*ns, float64(time.Since(t)))
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
	}
}

// shardRepresentatives picks one user per shard under the gateway's
// documented routing (FNV-32a of the user id modulo the shard count).
func shardRepresentatives(users []string, shards int) []string {
	reps := make([]string, 0, shards)
	seen := make(map[uint32]bool)
	for _, u := range users {
		h := fnv.New32a()
		h.Write([]byte(u)) //lppm:allow droppederr -- hash.Hash documents that Write never returns an error
		s := h.Sum32() % uint32(shards)
		if !seen[s] {
			seen[s] = true
			reps = append(reps, u)
		}
	}
	return reps
}

// timeRestores times lppm.RestoreUserStream for every user at the
// positions the journal holds: the per-user cost recovery pays lazily.
func timeRestores(g *service.Gateway, cfg service.Config) []float64 {
	st := g.Journal().State()
	if st == nil {
		return nil
	}
	root := rng.New(cfg.Seed)
	users := make([]string, 0, len(st.Users))
	for u := range st.Users {
		users = append(users, u)
	}
	sort.Strings(users)
	out := make([]float64, 0, len(users))
	for _, u := range users {
		cp := st.Users[u].Checkpoint
		t := time.Now()
		_, err := lppm.RestoreUserStream(cfg.Mechanism, cfg.Params, u, root.Named(u), cp.RNGPos, cp.Pending)
		d := time.Since(t)
		if err == nil {
			out = append(out, float64(d))
		}
	}
	return out
}

// protectCost times the mechanism alone over a fleet's records the way
// the gateway runs it — one lppm.UserStream per user, flushed every
// window — for up to maxUsers users: lppm.protect_ns_per_rec.
func protectCost(cfg service.Config, f *fleet, rounds, maxUsers int) float64 {
	root := rng.New(cfg.Seed)
	var busy time.Duration
	n := 0
	for u := 0; u < len(f.users) && u < maxUsers; u++ {
		us, err := lppm.NewUserStream(cfg.Mechanism, cfg.Params, f.users[u], root.Named(f.users[u]))
		if err != nil {
			return 0
		}
		for i := 0; i < rounds; i++ {
			if err := us.Push(f.record(u, i)); err != nil {
				return 0
			}
			if us.Pending() == cfg.FlushEvery || i == rounds-1 {
				t := time.Now()
				recs, err := us.Flush()
				busy += time.Since(t)
				if err != nil {
					return 0
				}
				n += len(recs)
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(busy) / float64(n)
}

// codecCost times the wire codec over records: trace.RecordWriter into
// memory, then trace.ScanRecords back, and checks the round trip.
func codecCost(recs []trace.Record) (encNS, decNS, bytesPer float64, ok bool) {
	if len(recs) == 0 {
		return 0, 0, 0, true
	}
	var buf bytes.Buffer
	t := time.Now()
	rw, err := trace.NewRecordWriter(&buf, trace.FormatJSONL)
	if err != nil {
		return 0, 0, 0, false
	}
	for _, r := range recs {
		if err := rw.Write(r); err != nil {
			return 0, 0, 0, false
		}
	}
	if err := rw.Flush(); err != nil {
		return 0, 0, 0, false
	}
	enc := time.Since(t)
	size := buf.Len()
	i := 0
	ok = true
	t = time.Now()
	err = trace.ScanRecords(&buf, trace.FormatJSONL, func(r trace.Record) error {
		if i >= len(recs) || recordHash(r) != recordHash(recs[i]) {
			ok = false
		}
		i++
		return nil
	})
	dec := time.Since(t)
	n := float64(len(recs))
	return float64(enc) / n, float64(dec) / n, float64(size) / n, ok && err == nil && i == len(recs)
}
