package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables are
// the benchmark's contract with BENCHMARK.json (the smoke test checks
// they agree); later changes refer to these names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 by every workload. What each means on each workload is in
// workloads.go.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_pts_s", "pts/s"},
	{"cpu_us_per_rec", "us"},
	{"recover_s", "s"},
	{"configure_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported with --trace 1 by every
// workload. A layer a workload does not exercise reports 0: it did no
// work there. The window latencies lead the list: users see them, but on
// a shared virtual machine the hypervisor's steal moves them by more than
// any bound a regression gate could hold (workloads.go), so they are
// reported without one, from the run's untraced half.
var perLayer = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"trace.encode_ns_per_rec", "ns"},
	{"trace.decode_ns_per_rec", "ns"},
	{"trace.wire_bytes_per_rec", "B"},
	{"client.send_ns_p50", "ns"},
	{"client.send_ns_p99", "ns"},
	{"server.body_wait_s", "s"},
	{"server.write_ns_p50", "ns"},
	{"server.write_ns_p99", "ns"},
	{"server.writes_per_window", "count"},
	{"obs.scrape_ms_p50", "ms"},
	{"obs.scrape_ms_p99", "ms"},
	{"service.ingest_ns_p50", "ns"},
	{"service.ingest_ns_p99", "ns"},
	{"service.window_ns_p50", "ns"},
	{"service.window_ns_p99", "ns"},
	{"service.records_per_flush", "count"},
	{"service.dropped", "count"},
	{"journal.write_ns_p50", "ns"},
	{"journal.write_ns_p99", "ns"},
	{"journal.fsync_ns_p50", "ns"},
	{"journal.fsync_ns_p99", "ns"},
	{"journal.fsyncs", "count"},
	{"journal.bytes_per_rec", "B"},
	{"journal.io_busy_ratio", "ratio"},
	{"journal.recover_open_s", "s"},
	{"rng.rehydrate_s", "s"},
	{"rng.restore_us_per_user", "us"},
	{"lppm.protect_ns_per_rec", "ns"},
	{"core.properties_s", "s"},
	{"metrics.prepare_s", "s"},
	{"metrics.evaluate_s", "s"},
	{"lppm.protect_dataset_s", "s"},
	{"eval.sweep_s", "s"},
	{"model.fit_ms", "ms"},
	{"core.configure_ms", "ms"},
	{"span.unaccounted_ratio", "ratio"},
	{"span.overhead_ratio", "ratio"},
	{"load.send_lag_p99_ms", "ms"},
	{"error_rate", "ratio"},
}

// bench is one run's state: options, measured values, the correctness
// ledger, the span recorder (traced half only) and the teardown stack.
type bench struct {
	opts  options
	start time.Time
	host0 hostCPU

	mu         sync.Mutex
	values     map[string]float64 // metric name → value
	samples    map[string]int     // metric name → sample count behind it
	attempted  int
	failed     int
	mismatches []string // first few failure descriptions, for stderr

	unresolved []string // percentiles with fewer than ten samples beyond them

	rec *recorder // nil outside the traced half

	closers []*closer // LIFO teardown stack
	tmpBase string
}

type closer struct {
	name string
	fn   func() error
	done atomic.Bool
}

func newBench(o options) (*bench, error) {
	b := &bench{
		opts:    o,
		start:   time.Now(),
		host0:   readHostCPU(),
		values:  make(map[string]float64),
		samples: make(map[string]int),
		tmpBase: filepath.Join(o.root, ".bench_build", "tmp"),
	}
	if err := os.MkdirAll(b.tmpBase, 0o755); err != nil {
		return nil, err
	}
	removeStaleTemp(b.tmpBase)
	return b, nil
}

// removeStaleTemp deletes temp directories left by a run that was killed
// outright (SIGKILL leaves no chance to clean up). Directory names start
// with the owning pid; only dirs whose process is gone are removed.
func removeStaleTemp(base string) {
	ents, err := os.ReadDir(base)
	if err != nil {
		return
	}
	for _, e := range ents {
		pidStr, _, ok := strings.Cut(e.Name(), "-")
		pid, err := strconv.Atoi(pidStr)
		if !ok || err != nil || pid == os.Getpid() {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(filepath.Join(base, e.Name())) //lppm:allow droppederr -- best effort: a dir that cannot go now is retried by the next run
		}
	}
}

// tempDir makes a directory under .bench_build/tmp that teardown removes,
// and returns it with a function that removes it now.
func (b *bench) tempDir(prefix string) (string, func() error, error) {
	dir, err := os.MkdirTemp(b.tmpBase, fmt.Sprintf("%d-%s-", os.Getpid(), prefix))
	if err != nil {
		return "", nil, err
	}
	dismiss := b.onTeardown("remove "+dir, func() error { return os.RemoveAll(dir) })
	return dir, func() error { dismiss(); return os.RemoveAll(dir) }, nil
}

// onTeardown pushes a release step for teardown, which runs the steps
// still pending last-in first-out (so a stack registered after its temp
// dir closes before the dir goes). The returned function drops the step
// once the caller has released the resource itself.
func (b *bench) onTeardown(name string, fn func() error) (dismiss func()) {
	c := &closer{name: name, fn: fn}
	b.mu.Lock()
	live := b.closers[:0]
	for _, o := range b.closers {
		if !o.done.Load() {
			live = append(live, o)
		}
	}
	b.closers = append(live, c)
	b.mu.Unlock()
	return func() { c.done.Store(true) }
}

// teardown runs every pending release step, newest first, and reports
// every failure. It is idempotent.
func (b *bench) teardown() error {
	b.mu.Lock()
	cs := b.closers
	b.closers = nil
	b.mu.Unlock()
	var errs []error
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i].done.Swap(true) {
			continue
		}
		if err := cs[i].fn(); err != nil {
			errs = append(errs, fmt.Errorf("teardown %s: %w", cs[i].name, err))
		}
	}
	return errors.Join(errs...)
}

// set records a metric value with the number of samples behind it.
func (b *bench) set(name string, v float64, n int) {
	b.mu.Lock()
	b.values[name] = v
	b.samples[name] = n
	b.mu.Unlock()
}

// check adds n attempted operations of which bad failed, missed or
// mismatched their reference; what describes the first failures.
func (b *bench) check(n, bad int, what string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += n
	b.failed += bad
	if bad > 0 && len(b.mismatches) < 10 {
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: %d of %d", what, bad, n))
	}
}

// contractResult is the last stdout line.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the contract line and the descriptor line printed
// before it.
func (b *bench) result() (contractResult, map[string]any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	attempted := b.attempted
	if attempted < 1 {
		attempted = 1
		b.failed++ // a run that checked nothing is not a correct run
	}
	errRate := float64(b.failed) / float64(attempted)
	b.values["error_rate"] = errRate
	b.samples["error_rate"] = attempted
	b.values["peak_rss_mb"] = peakRSSMB()
	b.samples["peak_rss_mb"] = 1
	defs := endToEnd
	if b.opts.trace {
		defs = perLayer
	}
	res := contractResult{
		Correct:   b.failed == 0,
		Attempted: attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := b.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	all := make(map[string]float64, len(b.values))
	for k, v := range b.values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			all[k] = v
		}
	}
	info := map[string]any{
		"workload":      b.opts.workload,
		"seed":          b.opts.seed,
		"seconds":       b.opts.seconds,
		"trace":         b.opts.trace,
		"small":         b.opts.small,
		"commit":        vcsRevision(),
		"source_sha256": sourceDigest(b.opts.root),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"wall_s":        time.Since(b.start).Seconds(),
		"host":          readHostCPU().since(b.host0),
		"values":        all,
		"samples":       b.samples,
		"unresolved":    b.unresolved,
	}
	if b.rec != nil {
		info["layer_self_s"] = b.rec.selfByLayer()
	}
	return res, info
}

// hostCPU is the machine-wide CPU time split from /proc/stat, in clock
// ticks. On a virtual machine the steal column is time the hypervisor gave
// the vCPUs to someone else: a run with high steal measured a slower
// machine, which the descriptor line makes visible.
type hostCPU struct{ total, steal, iowait float64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, found := strings.Cut(string(data), "\n")
	if !found {
		return hostCPU{}
	}
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		switch i {
		case 4:
			h.iowait = v
		case 7:
			h.steal = v
		}
	}
	return h
}

// since reports the steal and iowait shares of the machine's CPU time
// between h0 and h.
func (h hostCPU) since(h0 hostCPU) map[string]float64 {
	d := h.total - h0.total
	if d <= 0 {
		return nil
	}
	return map[string]float64{"steal_ratio": (h.steal - h0.steal) / d, "iowait_ratio": (h.iowait - h0.iowait) / d}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size, VmHWM from
// /proc/self/status (ru_maxrss would carry over the exec'ing shell's peak).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// vcsRevision is the commit the binary was built from, when the build saw
// a git checkout; a tree exported without .git has none, and there
// sourceDigest identifies the code.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowerQuartile and upperQuartile are the end-to-end estimators over the
// samples a run repeats: the quartile on the fast side, the lower one for
// a time and the upper one for a rate. The host's other tenants only ever
// slow the program down, and by how much changes from second to second
// (the hypervisor's steal ranged from 1 % to 32 % of a run on a 2-vCPU
// virtual machine): samples no pause reached keep the fast quartile
// where it is, while the median follows the host's load. A change that
// makes the program slower moves every sample, this quartile too.
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

func upperQuartile(xs []float64) float64 { return quantile(xs, 0.75) }

// setQuantiles records the p50 and p99 of samples (in the samples' unit,
// times scale) under name50/name99. The p99 is resolved only with at
// least ten samples beyond it; the sample count is recorded either way.
func (b *bench) setQuantiles(name50, name99 string, samples []float64, scale float64) {
	n := len(samples)
	b.set(name50, quantile(samples, 0.5)*scale, n)
	b.set(name99, quantile(samples, 0.99)*scale, n)
	if float64(n)*0.01 < 10 {
		b.mu.Lock()
		b.unresolved = append(b.unresolved, name99)
		b.mu.Unlock()
	}
}

// minGroup is the fewest windows a latency group needs for its p99 to
// have ten samples beyond it.
const minGroup = 1000

// setLatency records latency_p50_ms and latency_p99_ms from window
// latencies (ns) in groups — a stretch of the open loop, or one gateway
// cycle. Each figure is the median over the groups of the group's own
// quantile, so a host stall that spoils one group moves that group and
// not the figure. Groups too small to resolve a p99 are pooled instead.
func (b *bench) setLatency(groups [][]float64) {
	var p50, p99, pooled []float64
	n := 0
	for _, g := range groups {
		n += len(g)
		pooled = append(pooled, g...)
		if len(g) >= minGroup {
			p50 = append(p50, quantile(g, 0.5))
			p99 = append(p99, quantile(g, 0.99))
		}
	}
	if len(p99) == 0 {
		b.setQuantiles("latency_p50_ms", "latency_p99_ms", pooled, 1e-6)
		return
	}
	b.set("latency_p50_ms", median(p50)*1e-6, n)
	b.set("latency_p99_ms", median(p99)*1e-6, n)
	b.set("latency_groups", float64(len(p99)), len(p99))
}

// nsToFloat converts int64 nanosecond samples for quantile.
func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
