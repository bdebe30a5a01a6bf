package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/trace"
)

// gateway-journal sizing. The journal state is sized so recovery is long
// enough to time steadily: every cycle ends with gjUsers checkpointed
// users, each holding gjRetain windows in the snapshot that
// service.Recover folds and rewrites, and gjRounds records of rng history
// that the re-seek replays.
const (
	gjUsers  = 4096
	gjRounds = 64 // records per user before the restart: 8 windows
	gjWindow = 8  // checkpoint-heavy: one journal checkpoint per 8 records
	// gjSyncEvery is the group commit: fsync every 1024th append. At
	// every 16th a cycle made 2000 fsyncs, each a trip through the
	// virtual machine's block device; runs then lost 30-36 % of the
	// vCPUs' time to hypervisor steal (1-14 % at 1024), and every figure
	// followed the host's disk.
	gjSyncEvery = 1024
	// gjRetain is the per-user replay ring the journal keeps, one window
	// where the default is 8 (the workload never replays). At 8 every
	// segment rotation (every 4096 appends) wrote a 7 MB snapshot: 220
	// journal bytes per record against 90, 370k records/s against 500k
	// on a 2-vCPU virtual machine, and service.Recover's read and
	// rewrite of that snapshot took 0.25 s of the 0.30 s recovery, so the
	// rng re-seek that recovery exists to do was a sixth of it.
	gjRetain = 1
	// gjSwapEvery spaces the Gateway.Swap calls timed while producers
	// run (configure_s): a swap waits for its deploy record to pass the
	// journal queue behind the checkpoints already in it.
	gjSwapEvery = 20 * time.Millisecond
)

// cycleStats aggregates the gateway cycles of one half of a run.
type cycleStats struct {
	setup, thr, cpuPerRec, recover, recoverOp, rehydrate []float64
	windowLat                                            [][]float64 // per cycle
	swapNS, restoreNS                                    []float64
	ingestNS, serviceNS                                  []int64
	fsWrite, fsSync                                      []int64
	fsyncs, bytesPerRec, busy                            []float64
	dropped                                              uint64
	recsPerFlush                                         float64
}

func runGatewayJournal(ctx context.Context, b *bench) error {
	users, rounds := gjUsers, gjRounds
	if b.opts.small {
		users, rounds = 64, 16
	}
	f, err := newFleet(b.opts.seed, users, rounds+1)
	if err != nil {
		return err
	}
	dep, err := geoiDeployment()
	if err != nil {
		return err
	}
	cfg := gatewayConfig(dep, gjWindow, nil)
	counts := make([]int, users)
	for u := range counts {
		counts[u] = rounds + 1
	}
	ref, err := reference(ctx, cfg, f, 0, counts)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	plain, traced, err := halves(b, func(rec *recorder) (*cycleStats, error) {
		return gatewayJournalHalf(ctx, b, cfg, dep, f, rounds, ref, rec)
	})
	if err != nil {
		return err
	}
	b.set("setup_s", lowerQuartile(plain.setup), len(plain.setup))
	b.set("throughput_pts_s", upperQuartile(plain.thr), len(plain.thr))
	b.setLatency(plain.windowLat)
	b.set("cpu_us_per_rec", median(plain.cpuPerRec), len(plain.cpuPerRec))
	b.set("recover_s", lowerQuartile(plain.recover), len(plain.recover))
	b.set("configure_s", lowerQuartile(plain.swapNS)/1e9, len(plain.swapNS))
	if traced == nil {
		return nil
	}
	t := traced
	b.setQuantiles("service.ingest_ns_p50", "service.ingest_ns_p99", nsToFloat(t.ingestNS), 1)
	b.setQuantiles("service.window_ns_p50", "service.window_ns_p99", nsToFloat(t.serviceNS), 1)
	b.set("service.records_per_flush", t.recsPerFlush, 1)
	b.set("service.dropped", float64(t.dropped), 1)
	b.setQuantiles("journal.write_ns_p50", "journal.write_ns_p99", nsToFloat(t.fsWrite), 1)
	b.setQuantiles("journal.fsync_ns_p50", "journal.fsync_ns_p99", nsToFloat(t.fsSync), 1)
	b.set("journal.fsyncs", median(t.fsyncs), len(t.fsyncs))
	b.set("journal.bytes_per_rec", median(t.bytesPerRec), len(t.bytesPerRec))
	b.set("journal.io_busy_ratio", median(t.busy), len(t.busy))
	b.set("journal.recover_open_s", median(t.recoverOp), len(t.recoverOp))
	b.set("rng.rehydrate_s", median(t.rehydrate), len(t.rehydrate))
	b.set("rng.restore_us_per_user", median(t.restoreNS)/1e3, len(t.restoreNS))
	b.set("lppm.protect_ns_per_rec", protectCost(cfg, f, rounds, 512), 1)
	setCodec(b, fleetRecords(f, rounds, 1<<16))
	ratio, roots := b.rec.unaccounted("e2e.window")
	b.set("span.unaccounted_ratio", ratio, roots)
	// Per-record time, traced over untraced.
	b.set("span.overhead_ratio", median(plain.thr)/median(t.thr)-1, len(t.thr))
	return nil
}

// gatewayJournalHalf runs cycles on fresh journals until the half's budget
// is spent (at least one), checking each against the reference.
func gatewayJournalHalf(ctx context.Context, b *bench, cfg service.Config, dep *core.Deployment, f *fleet, rounds int, ref []*stream, rec *recorder) (*cycleStats, error) {
	h := &cycleStats{}
	// Journal on ≡ journal off for the first rounds records, and
	// recovered ≡ never killed: the record after the restart continues
	// each user's stream.
	pre := make([]*stream, len(ref))
	post := make([]*stream, len(ref))
	for u, s := range ref {
		pre[u], post[u] = s.split(rounds / cfg.FlushEvery)
	}
	deadline := time.Now().Add(b.budget())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dir, removeDir, err := b.tempDir("journal")
		if err != nil {
			return nil, err
		}
		jc := &service.JournalConfig{Dir: dir, SyncEvery: gjSyncEvery, RetainWindows: gjRetain}
		var fs *timedFS
		if rec != nil {
			fs = &timedFS{}
			jc.FS = fs
		}
		c := &cycle{cfg: cfg, journal: jc, f: f, rounds: rounds, swapEvery: gjSwapEvery, swapTo: dep,
			rec: rec, timedFS: fs, phase: i, restores: rec != nil}
		r, err := c.run(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		checkCycle(b, r, pre, post, "gateway-journal")
		if err := removeDir(); err != nil {
			return nil, err
		}
		h.add(r)
		if fs != nil {
			h.fsWrite = append(h.fsWrite, r.fsWrite...)
			h.fsSync = append(h.fsSync, r.fsSync...)
			h.fsyncs = append(h.fsyncs, float64(len(r.fsSync)))
			h.bytesPerRec = append(h.bytesPerRec, float64(r.fsBytes)/float64(r.delivered))
			var busy int64
			for _, d := range r.fsWrite {
				busy += d
			}
			for _, d := range r.fsSync {
				busy += d
			}
			h.busy = append(h.busy, float64(busy)/float64(r.ingestWall))
		}
	}
	return h, nil
}

// add folds one cycle's measurements into the half.
func (h *cycleStats) add(r *cycleResult) {
	h.setup = append(h.setup, r.setup.Seconds())
	h.thr = append(h.thr, float64(r.delivered)/r.ingestWall.Seconds())
	h.cpuPerRec = append(h.cpuPerRec, r.cpu/float64(r.delivered)*1e6)
	h.recover = append(h.recover, r.recover.Seconds())
	h.recoverOp = append(h.recoverOp, r.recoverOp.Seconds())
	h.rehydrate = append(h.rehydrate, (r.recover - r.recoverOp).Seconds())
	h.windowLat = append(h.windowLat, r.windowLat)
	h.swapNS = append(h.swapNS, r.swapNS...)
	h.restoreNS = append(h.restoreNS, r.restoreNS...)
	h.ingestNS = append(h.ingestNS, r.ingestNS...)
	h.serviceNS = append(h.serviceNS, r.serviceNS...)
	h.dropped += r.stats.Dropped
	if r.stats.Flushes > 0 {
		h.recsPerFlush = float64(r.stats.Emitted) / float64(r.stats.Flushes)
	}
}

// checkCycle compares a cycle's outputs with the references: every
// user's records before the restart against pre and the record after it
// against post.
func checkCycle(b *bench, r *cycleResult, pre, post []*stream, what string) {
	n, bad := 0, 0
	pn, pbad := 0, 0
	for u := range pre {
		a, x := compare(r.got[u], pre[u])
		n, bad = n+a, bad+x
		a, x = compare(r.post[u], post[u])
		pn, pbad = pn+a, pbad+x
	}
	b.check(n, bad, what+" records before the restart")
	b.check(pn, pbad, what+" records after the restart")
}

// fleetRecords lists up to limit of the fleet's first rounds records per
// user, in round-robin order.
func fleetRecords(f *fleet, rounds, limit int) []trace.Record {
	var out []trace.Record
	for i := 0; i < rounds && len(out) < limit; i++ {
		for u := range f.users {
			if len(out) == limit {
				break
			}
			out = append(out, f.record(u, i))
		}
	}
	return out
}

// setCodec records the wire codec's cost on a workload's own records.
func setCodec(b *bench, recs []trace.Record) {
	enc, dec, size, ok := codecCost(recs)
	n := 0
	if !ok {
		n = len(recs)
	}
	b.check(len(recs), n, "codec round trip")
	b.set("trace.encode_ns_per_rec", enc, len(recs))
	b.set("trace.decode_ns_per_rec", dec, len(recs))
	b.set("trace.wire_bytes_per_rec", size, len(recs))
}
