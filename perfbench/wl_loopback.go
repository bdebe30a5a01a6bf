package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/service"
)

// stream-loopback sizing.
const (
	lbUsers  = 48 // tens of users, split over procs connections
	lbWindow = 32
	// openRate is phase A's fixed send rate in records per second over
	// both connections, well below saturation: phase B reaches 120k to
	// 250k records/s on a 2-vCPU virtual machine, depending on the host's
	// load. At 50k/s the window p99 moved by ±25% from run to run.
	openRate = 30000
	// lbRestarts cold restarts are timed per half (recover_s, setup_s).
	lbRestarts = 60
	// scrapeEvery is how often each phase reads GET /metrics and
	// GET /v1/stats beside the streaming writes.
	scrapeEvery = time.Second
)

// loopStack is one loopback serving stack: gateway, server on a
// 127.0.0.1 listener, the admin plane (/metrics) on a second listener,
// and a client with its own transport.
type loopStack struct {
	gw        *service.Gateway
	srv       *server.Server
	hs, admin *http.Server
	tr        *http.Transport
	hc        *http.Client
	cl        *client.Client
	adminBase string
	probe     *serverProbe // traced half only
	served    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
	serveErrs chan error     // one slot per listener: Serve failures other than the Shutdown
	dismiss   func()         // drops s.close from the teardown stack
	streams   []func() error // closes a stream and drops it from the teardown stack
}

func startLoop(ctx context.Context, b *bench, cfg service.Config, rec *recorder) (*loopStack, error) {
	gw, err := service.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &loopStack{gw: gw, serveErrs: make(chan error, 2)}
	s.dismiss = b.onTeardown("loopback stack", s.close)
	if s.srv, err = server.New(server.Config{Gateway: gw, Seed: gatewaySeed}); err != nil {
		return nil, err
	}
	var handler http.Handler = s.srv
	if rec != nil {
		s.probe = &serverProbe{next: s.srv, rec: rec}
		handler = s.probe
	}
	s.hs = &http.Server{Handler: handler}
	s.admin = &http.Server{Handler: obs.AdminMux(gw.Obs())}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, ln.Close())
	}
	for _, pair := range []struct {
		hs *http.Server
		ln net.Listener
	}{{s.hs, ln}, {s.admin, aln}} {
		s.served.Add(1)
		go func(hs *http.Server, ln net.Listener) {
			defer s.served.Done()
			if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				s.serveErrs <- err
			}
		}(pair.hs, pair.ln)
	}
	s.adminBase = "http://" + aln.Addr().String()
	s.tr = http.DefaultTransport.(*http.Transport).Clone()
	s.hc = &http.Client{Transport: s.tr}
	s.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(s.hc))
	return s, nil
}

// close tears the stack down in the serving plane's order: Server.Drain
// (stream intake stops, the gateway drains, tails reach their clients),
// http.Server.Shutdown on both listeners, Gateway.Close (already closed
// by the drain; idempotent), then the client's idle connections.
// Idempotent.
func (s *loopStack) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		var errs []error
		if s.srv != nil {
			errs = append(errs, s.srv.Drain(ctx))
		}
		if s.hs != nil {
			errs = append(errs, s.hs.Shutdown(ctx), s.admin.Shutdown(ctx))
		}
		errs = append(errs, s.gw.Close())
		if s.tr != nil {
			s.tr.CloseIdleConnections()
		}
		s.served.Wait()
		close(s.serveErrs)
		for err := range s.serveErrs {
			errs = append(errs, err)
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// shutdown ends a stack on the normal path: its finished streams are
// released, then the stack closes.
func (s *loopStack) shutdown() error {
	var errs []error
	for _, release := range s.streams {
		errs = append(errs, release())
	}
	s.streams = nil
	s.dismiss()
	return errors.Join(append(errs, s.close())...)
}

// openStreams opens n streams; teardown aborts any still open.
func (s *loopStack) openStreams(ctx context.Context, b *bench, n int) ([]*client.Stream, error) {
	sts := make([]*client.Stream, 0, n)
	for i := 0; i < n; i++ {
		st, err := s.cl.Stream(ctx)
		if err != nil {
			return nil, err
		}
		dismiss := b.onTeardown("client stream", st.Close)
		s.streams = append(s.streams, func() error { dismiss(); return st.Close() })
		sts = append(sts, st)
	}
	return sts, nil
}

// lbHalf is what one half of a stream-loopback run measured.
type lbHalf struct {
	setup, recover, reconfNS []float64
	a, bph                   *phaseResult
	stats                    service.Stats
	probe                    *serverProbe
	bodyWaitB                time.Duration
}

func runLoopback(ctx context.Context, b *bench) error {
	users := lbUsers
	if b.opts.small {
		users = 8
	}
	f, err := newFleet(b.opts.seed, users, 2048)
	if err != nil {
		return err
	}
	dep, err := geoiDeployment()
	if err != nil {
		return err
	}
	cfg := gatewayConfig(dep, lbWindow, nil)
	plain, traced, err := halves(b, func(rec *recorder) (*lbHalf, error) {
		return loopbackHalf(ctx, b, cfg, f, rec)
	})
	if err != nil {
		return err
	}
	b.set("setup_s", lowerQuartile(plain.setup), len(plain.setup))
	b.set("recover_s", lowerQuartile(plain.recover), len(plain.recover))
	b.set("configure_s", lowerQuartile(plain.reconfNS)/1e9, len(plain.reconfNS))
	b.setLatency(plain.a.windowLat)
	b.set("throughput_pts_s", plain.bph.throughput(), plain.bph.delivered)
	b.set("cpu_us_per_rec", plain.bph.cpu/float64(plain.bph.delivered)*1e6, plain.bph.delivered)
	if traced == nil {
		return nil
	}
	t := traced
	b.setQuantiles("client.send_ns_p50", "client.send_ns_p99", nsToFloat(append(t.a.sendNS, t.bph.sendNS...)), 1)
	b.set("server.body_wait_s", t.bodyWaitB.Seconds(), 1)
	p := t.probe
	p.mu.Lock()
	b.setQuantiles("server.write_ns_p50", "server.write_ns_p99", nsToFloat(p.writeNS), 1)
	if len(p.writeNS) > 0 {
		b.set("server.writes_per_window", float64(p.writes)/float64(len(p.writeNS)), len(p.writeNS))
	}
	p.mu.Unlock()
	b.setQuantiles("obs.scrape_ms_p50", "obs.scrape_ms_p99", append(t.a.scrapeMS, t.bph.scrapeMS...), 1)
	if t.stats.Flushes > 0 {
		b.set("service.records_per_flush", float64(t.stats.Emitted)/float64(t.stats.Flushes), int(t.stats.Flushes))
	}
	b.set("service.dropped", float64(t.stats.Dropped), 1)
	b.set("lppm.protect_ns_per_rec", protectCost(cfg, f, 1024, users), 1)
	setCodec(b, fleetRecords(f, 2048, 1<<16))
	ratio, roots := b.rec.unaccounted("e2e.window")
	b.set("span.unaccounted_ratio", ratio, roots)
	b.set("span.overhead_ratio", plain.bph.throughput()/t.bph.throughput()-1, t.bph.delivered)
	lag := plain.a.sendLag
	b.set("load.send_lag_p99_ms", quantile(lag, 0.99)*1e-6, len(lag))
	return nil
}

// loopbackHalf runs one half: cold restarts, then one stack through
// phase A, phase B and the reconfigure bursts, then the correctness check.
func loopbackHalf(ctx context.Context, b *bench, cfg service.Config, f *fleet, rec *recorder) (*lbHalf, error) {
	h := &lbHalf{}
	nu := len(f.users)
	budget := b.budget()
	restarts := make([][]*stream, 0, lbRestarts)
	runtime.GC() // time the restarts on a settled heap, not behind the inputs' garbage
	for i := 0; i < lbRestarts; i++ {
		setup, recov, got, err := coldRestart(ctx, b, cfg, f, rec)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		h.setup = append(h.setup, setup.Seconds())
		h.recover = append(h.recover, recov.Seconds())
		restarts = append(restarts, got)
	}

	t0 := time.Now()
	s, err := startLoop(ctx, b, cfg, rec)
	if err != nil {
		return nil, err
	}
	h.setup = append(h.setup, time.Since(t0).Seconds())
	h.probe = s.probe
	next := make([]int, nu)
	got := newStreams(nu, lbWindow)
	if h.a, err = runPhase(ctx, b, s, f, next, got, 3*budget/10, true, 1, rec); err != nil {
		return nil, fmt.Errorf("phase A: %w", err)
	}
	var wait0 int64
	if s.probe != nil {
		wait0 = s.probe.bodyWait.Load()
	}
	if h.bph, err = runPhase(ctx, b, s, f, next, got, budget/2, false, 2, rec); err != nil {
		return nil, fmt.Errorf("phase B: %w", err)
	}
	if s.probe != nil {
		h.bodyWaitB = time.Duration(s.probe.bodyWait.Load() - wait0)
	}
	if h.reconfNS, err = reconfigure(ctx, b, s); err != nil {
		return nil, err
	}
	h.stats = s.gw.Stats()
	if err := s.shutdown(); err != nil {
		return nil, err
	}

	// Loopback ≡ file path: every user's records through an in-process
	// gateway give the same protected records, and a cold restart's first
	// record equals a fresh stream's first record.
	ref, err := reference(ctx, cfg, f, 0, next)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	n, bad := 0, 0
	for u := range ref {
		a, x := compare(got[u], ref[u])
		n, bad = n+a, bad+x
	}
	b.check(n, bad, "loopback records")
	n, bad = 0, 0
	for _, r := range restarts {
		for u := range ref {
			first, _ := ref[u].split(1)
			a, x := compare(r[u], first)
			n, bad = n+a, bad+x
		}
	}
	b.check(n, bad, "restart records")
	return h, nil
}

// coldRestart builds a stack and streams one window per user through it
// until every user's protected window is back. Without a journal a
// restart has nothing to replay, so this is the time a restarted
// loopback server takes to serve every user again.
func coldRestart(ctx context.Context, b *bench, cfg service.Config, f *fleet, rec *recorder) (setup, recov time.Duration, got []*stream, err error) {
	t0 := time.Now()
	s, err := startLoop(ctx, b, cfg, rec)
	if err != nil {
		return 0, 0, nil, err
	}
	sts, err := s.openStreams(ctx, b, procs)
	if err != nil {
		return 0, 0, nil, err
	}
	setup = time.Since(t0)
	got = newStreams(len(f.users), lbWindow)
	errs := make([]error, 2*len(sts))
	var wg sync.WaitGroup
	for c, st := range sts {
		wg.Add(2)
		go func(c int, st *client.Stream) {
			defer wg.Done()
			for i := 0; i < lbWindow; i++ {
				for u := c; u < len(f.users); u += len(sts) {
					if err := st.Send(f.record(u, i)); err != nil {
						errs[2*c] = err
						return
					}
				}
			}
			errs[2*c] = st.CloseSend()
		}(c, st)
		go func(c int, st *client.Stream) {
			defer wg.Done()
			for {
				r, err := st.Recv()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[2*c+1] = err
					return
				}
				got[f.index[r.User]].add(r)
			}
		}(c, st)
	}
	wg.Wait()
	recov = time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return 0, 0, nil, err
	}
	return setup, recov, got, s.shutdown()
}

// phaseResult is one streaming phase's measurements.
type phaseResult struct {
	start, last time.Time
	delivered   int
	buckets     []int // deliveries per throughputBucket since start
	cpu         float64
	windowLat   [][]float64 // ns, open loop only, per latencyGroup of due times
	sendLag     []float64   // ns, open loop only
	sendNS      []int64     // traced only
	scrapeMS    []float64
}

// latencyGroup is the stretch of phase A's schedule whose windows form
// one latency group: at openRate about 1900 windows, so each group
// resolves its own p99.
const latencyGroup = 2 * time.Second

// throughputBucket is the interval phase B counts deliveries in; its
// throughput is the upper quartile over whole buckets after the first
// (upperQuartile), so a transient stall moves one bucket, not the figure.
const throughputBucket = 500 * time.Millisecond

func (p *phaseResult) throughput() float64 {
	if n := int(p.last.Sub(p.start) / throughputBucket); n >= 3 {
		rates := make([]float64, 0, n-1)
		for _, c := range p.buckets[1:n] {
			rates = append(rates, float64(c)/throughputBucket.Seconds())
		}
		return upperQuartile(rates)
	}
	return float64(p.delivered) / p.last.Sub(p.start).Seconds()
}

// runPhase streams the fleet over procs connections until budget has
// passed; every user then stops on a window boundary, so no partial window
// is left. open selects phase A or phase B:
//
//   - Phase A is an open loop at openRate. Each user sends at the same
//     period, staggered by a fraction of a window per user so window
//     closings spread evenly in time, as independent users' would; a
//     window's latency is timed from its closing record's due time, so a
//     late generator counts against the result.
//   - Phase B is a closed loop: each connection keeps at most two windows
//     per user in flight.
//
// next holds each user's next record index and got the digests of the
// received records; both carry over between phases.
func runPhase(ctx context.Context, b *bench, s *loopStack, f *fleet, next []int, got []*stream, budget time.Duration, open bool, phase int, rec *recorder) (*phaseResult, error) {
	if s.probe != nil {
		s.probe.phase.Store(int32(phase))
	}
	sts, err := s.openStreams(ctx, b, procs)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{}
	conns := len(sts)
	base := append([]int(nil), next...)
	type connOut struct {
		delivered int
		last      time.Time
		buckets   []int
		lat       [][]float64 // per latencyGroup
		lag       []float64
		sendNS    []int64
		sent      []int // per position on the connection
		// The receiver and the sender each own one error.
		recvErr, sendErr error
	}
	outs := make([]connOut, conns)
	stop := make(chan struct{})
	scrapeDone := make(chan scrapeResult, 1)
	go func() { scrapeDone <- scrape(ctx, s, stop) }()

	cpu0 := cpuSeconds()
	res.start = time.Now().Add(2 * time.Millisecond) // the schedule's time zero
	deadline := res.start.Add(budget)
	var wg sync.WaitGroup
	for c, st := range sts {
		var users []int // fleet index by position on this connection
		for u := c; u < len(f.users); u += conns {
			users = append(users, u)
		}
		nu := len(users)
		// Phase A: position p's k-th record is due at
		// start + (k + p·window/nu)·period.
		period := time.Duration(float64(time.Second) * float64(conns*nu) / openRate)
		due := func(p, k int) time.Time {
			return res.start.Add(time.Duration((float64(k) + float64(p*lbWindow)/float64(nu)) * float64(period)))
		}
		credits := make(chan struct{}, 2*nu*lbWindow)
		for i := 0; i < cap(credits); i++ {
			credits <- struct{}{}
		}
		out := &outs[c]
		out.sent = make([]int, nu)
		wg.Add(2)
		go func(st *client.Stream) { // receiver
			defer wg.Done()
			for {
				r, err := st.Recv()
				if err == io.EOF {
					return
				}
				if err != nil {
					out.recvErr = err
					return
				}
				at := time.Now()
				u := f.index[r.User]
				got[u].add(r)
				out.delivered++
				out.last = at
				if i := int(at.Sub(res.start) / throughputBucket); i >= 0 {
					for len(out.buckets) <= i {
						out.buckets = append(out.buckets, 0)
					}
					out.buckets[i]++
				}
				if !open {
					credits <- struct{}{}
					continue
				}
				if n := got[u].n - base[u]; n%lbWindow == 0 {
					d := due(u/conns, n-1)
					g := int(d.Sub(res.start) / latencyGroup)
					for len(out.lat) <= g {
						out.lat = append(out.lat, nil)
					}
					out.lat[g] = append(out.lat[g], float64(at.Sub(d)))
					rec.add("e2e.window", windowID(phase, r.User, uint64(n/lbWindow-1)), rec.at(d), rec.at(at))
				}
			}
		}(st)
		go func(st *client.Stream) { // sender
			defer wg.Done()
			defer func() {
				if err := st.CloseSend(); err != nil {
					out.sendErr = errors.Join(out.sendErr, err)
				}
			}()
			done := make([]bool, nu)
			left := nu
			for k := 0; left > 0; k++ {
				var p int
				if open {
					// The user whose next record is due first.
					p = -1
					for q := range users {
						if !done[q] && (p < 0 || due(q, out.sent[q]).Before(due(p, out.sent[p]))) {
							p = q
						}
					}
					d := due(p, out.sent[p])
					if wait := time.Until(d); wait > 0 {
						time.Sleep(wait)
					}
					out.lag = append(out.lag, float64(time.Since(d)))
				} else {
					p = k % nu
					if err := takeCredit(ctx, credits); err != nil {
						out.sendErr = err
						return
					}
				}
				u := users[p]
				i := base[u] + out.sent[p]
				var ts time.Time
				if rec != nil {
					ts = time.Now()
				}
				if err := st.Send(f.record(u, i)); err != nil {
					out.sendErr = err
					return
				}
				out.sent[p]++
				if rec != nil {
					te := time.Now()
					out.sendNS = append(out.sendNS, int64(te.Sub(ts)))
					if out.sent[p]%lbWindow == 0 {
						rec.add("client.send", windowID(phase, f.users[u], uint64(out.sent[p]/lbWindow-1)), rec.at(ts), rec.at(te))
					}
				}
				if out.sent[p]%lbWindow != 0 || (time.Now().Before(deadline) && ctx.Err() == nil) {
					continue
				}
				switch {
				case open:
					done[p] = true
					left--
				case p == nu-1:
					// Round-robin keeps phase B's users level: stop
					// after a whole round.
					left = 0
				}
			}
		}(st)
	}
	wg.Wait()
	res.cpu = cpuSeconds() - cpu0
	close(stop)
	sc := <-scrapeDone
	res.scrapeMS = sc.ms
	b.check(sc.tried, sc.failed, "scrapes of GET /metrics and GET /v1/stats")
	var errs []error
	for c := range outs {
		o := &outs[c]
		errs = append(errs, o.recvErr, o.sendErr)
		res.delivered += o.delivered
		if o.last.After(res.last) {
			res.last = o.last
		}
		for i, n := range o.buckets {
			for len(res.buckets) <= i {
				res.buckets = append(res.buckets, 0)
			}
			res.buckets[i] += n
		}
		for g, xs := range o.lat {
			for len(res.windowLat) <= g {
				res.windowLat = append(res.windowLat, nil)
			}
			res.windowLat[g] = append(res.windowLat[g], xs...)
		}
		res.sendLag = append(res.sendLag, o.lag...)
		res.sendNS = append(res.sendNS, o.sendNS...)
		for p, n := range o.sent {
			next[c+p*conns] += n
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// stallLimit bounds how long a run waits for protected records that
// should be on their way; past it they count as lost and the run fails
// rather than hang until its deadline.
const stallLimit = 10 * time.Second

// takeCredit takes one in-flight credit, waiting at most stallLimit: the
// credits come back as protected records arrive, so none for that long
// means records went missing.
func takeCredit(ctx context.Context, credits chan struct{}) error {
	select {
	case <-credits:
		return nil
	default:
	}
	t := time.NewTimer(stallLimit)
	defer t.Stop()
	select {
	case <-credits:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return fmt.Errorf("no protected record arrived for %v: records are missing", stallLimit)
	}
}

// After phase B the stack is re-configured in reconfigureBursts bursts of
// reconfigureBurst back-to-back POST /v1/reconfigure calls, one burst
// every reconfigurePause; the median call is the warm path.
const (
	reconfigureBursts = 40
	reconfigureBurst  = 8
	reconfigurePause  = 25 * time.Millisecond
)

// reconfigure times the bursts of POST /v1/reconfigure. Each call
// re-applies the serving ε, so the protected output does not change;
// each is a full hot swap.
func reconfigure(ctx context.Context, b *bench, s *loopStack) ([]float64, error) {
	eps := lppm.Params{lppm.EpsilonParam: s.gw.Deployment().Params[lppm.EpsilonParam]}
	runtime.GC() // phase B's garbage is not the reconfigure path's cost
	tick := time.NewTicker(reconfigurePause)
	defer tick.Stop()
	var ns []float64
	for i := 0; i < reconfigureBursts; i++ {
		for j := 0; j < reconfigureBurst; j++ {
			t := time.Now()
			if _, err := s.cl.Reconfigure(ctx, eps, nil); err != nil {
				b.check(1, 1, "POST /v1/reconfigure")
				return nil, err
			}
			ns = append(ns, float64(time.Since(t)))
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
	b.check(len(ns), 0, "POST /v1/reconfigure")
	return ns, nil
}

// scrapeResult is what a phase's scraper measured.
type scrapeResult struct {
	ms            []float64 // per successful read
	tried, failed int
}

// scrape reads GET /metrics (admin listener) and GET /v1/stats (serving
// listener) at once and then every scrapeEvery until stop closes.
func scrape(ctx context.Context, s *loopStack, stop <-chan struct{}) scrapeResult {
	var res scrapeResult
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for {
		for _, read := range []func() error{
			func() error { return getDiscard(ctx, s.hc, s.adminBase+"/metrics") },
			func() error { _, err := s.cl.Stats(ctx); return err },
		} {
			t := time.Now()
			res.tried++
			if err := read(); err != nil {
				res.failed++
				continue
			}
			res.ms = append(res.ms, float64(time.Since(t))/1e6)
		}
		select {
		case <-stop:
			return res
		case <-ctx.Done():
			return res
		case <-tick.C:
		}
	}
}

func getDiscard(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
