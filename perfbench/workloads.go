package main

import (
	"context"
	"time"
)

// workloads maps --workload names to their runners. Each exercises a
// different set of layers, so a change to one layer is seen moving the
// workload that uses it and not moving the ones that bypass it:
//
//   - stream-loopback: an in-process server.Server on a 127.0.0.1:0
//     listener over a GEO-I gateway (ε = 0.01), metrics on, tracer and
//     journal off, a seeded fleet of 48 users streamed over 2 connections
//     in windows of 32. The wire codec and the HTTP layers do most of the
//     work and the journal none. Phase A is an open loop at the fixed
//     rate openRate and gives the latencies; phase B is a closed loop and
//     gives throughput and CPU per record. Both scrape GET /metrics and
//     GET /v1/stats once a second, so reads run beside the writes.
//   - gateway-journal: an in-process service.Gateway from service.Recover
//     with the journal on the host filesystem (group commit, window 8,
//     4096 users), two producers calling Ingest and one goroutine
//     draining Output; then Close, service.Recover and one record per
//     user, which forces every lazy re-seek. The journal pump, shard
//     queues, mechanism and rng do the work, with no codec or HTTP; the
//     write path (checkpoints while serving) sits beside the read path
//     (fold and re-seek).
//   - configure: core.Analyze on a seeded fleet (GEO-I, POI-retrieval
//     privacy, area-coverage utility, the paper's 25-point grid) and
//     Analysis.Deploy at the paper's objectives (Pr ≤ 0.10, Ut ≥ 0.80):
//     the paper's own user-facing operation and the controller's
//     redeploy path. eval, metrics and model do the work. The last part
//     of the run applies the deployment to the fleet through an
//     in-process gateway (the paper's "then cheap to apply"), which is
//     where this workload's latency and restart figures come from.
//
// Every workload reports every end-to-end metric, as the benchmark's
// contract requires, and the window latencies with the per-layer metrics.
// Their meaning per workload:
//
//	metric            stream-loopback        gateway-journal        configure
//	setup_s           gateway+server+        service.Recover on an  Definition with its
//	                  listeners+2 streams    empty journal          metrics, validated
//	throughput_pts_s  phase B delivered/s    delivered/s            sweep-protected/s
//	cpu_us_per_rec    phase B                ingest phase           per sweep-protected
//	recover_s         cold restart (no       service.Recover + one  restart of the
//	                  journal) until every   record per user        applied deployment
//	                  user's record is back  (every re-seek)        + one record per user
//	configure_s       POST /v1/reconfigure   Gateway.Swap while     core.Analyze +
//	                  round trip, after      producers run (deploy  Analysis.Deploy
//	                  phase B                record journaled)
//	peak_rss_mb       process peak resident set size, inputs and references included
//	latency_p50/p99   window, due time of    window, Ingest of the  window of the
//	(per-layer)       the closing record →   closing record →       deployment applied
//	                  last record received   window on Output       to the fleet
//
// The latencies are per-layer metrics, without a bound: on a 2-vCPU
// virtual machine whose host also runs other machines, runs of the
// same code gave a loopback p99 from 4 to 93 ms and a p50 from 2.0 to
// 9.1 ms, following the share of time the hypervisor took the vCPUs away
// (steal, 1 % to 32 % of the run, reported in the descriptor line).
//
// Latency percentiles come from every sample (no histogram). The
// end-to-end timings are the fast-side quartile of the run's samples
// (lowerQuartile, upperQuartile); cpu_us_per_rec is a median. Sample
// counts, and the percentiles with fewer than ten samples beyond them,
// are in the descriptor line printed before the result. Neither
// reconfiguration changes ε, so no protected record changes.
var workloads = map[string]func(context.Context, *bench) error{
	"stream-loopback": runLoopback,
	"gateway-journal": runGatewayJournal,
	"configure":       runConfigure,
}

// budget returns the measured budget of one half of the run: the whole run
// untraced, or half of it for each of the two halves of a traced run.
func (b *bench) budget() time.Duration {
	d := time.Duration(b.opts.seconds) * time.Second
	if b.opts.trace {
		d /= 2
	}
	return d
}

// halves runs fn untraced, and with --trace 1 a second time with a span
// recorder, returning both results (the traced one nil without tracing).
// Per-layer metrics come from the traced half; span.overhead_ratio
// compares the two.
func halves[T any](b *bench, fn func(rec *recorder) (T, error)) (plain, traced T, err error) {
	if plain, err = fn(nil); err != nil || !b.opts.trace {
		return plain, traced, err
	}
	b.rec = newRecorder()
	traced, err = fn(b.rec)
	if err != nil {
		return plain, traced, err
	}
	return plain, traced, b.writeTrace()
}
