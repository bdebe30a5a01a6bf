package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stat"
	"repro/internal/synth"
	"repro/internal/trace"
)

// configure sizing: the 25-driver × 12 h fixture of the paper benchmarks
// analyzes in about half a second on a 2-vCPU host; this fleet is scaled
// up so one Analyze takes seconds. Drivers report at their own periods,
// so a seed's fleet is cut to exactly cfRecords records: the work of one
// Analyze then does not depend on the seed's record count.
const (
	cfDrivers  = 100
	cfDuration = 24 * time.Hour
	cfRecords  = 120000
	cfWindow   = 32
	// cfRounds records per user make one pass of the applied deployment:
	// cfDrivers·cfRounds/cfWindow windows, enough for a resolved p99.
	cfRounds = 1024
	// setup_s is the lower quartile of cfSetups samples taken first and
	// one more after every apply pass, each the mean over cfSetupBatch
	// definitions (one takes well under a microsecond). Taken only at
	// the start, all samples fell within the same 7 ms, and whole runs
	// read either about 0.20 or about 0.37 µs.
	cfSetups     = 21
	cfSetupBatch = 1024
)

// paperObjectives are the paper's headline objectives: at most 10 % of
// POIs retrieved, at least 80 % area-coverage utility.
var paperObjectives = model.Objectives{MaxPrivacy: 0.10, MinUtility: 0.80}

// newDefinition is framework step 1 as the paper's headline sets it up:
// GEO-I, POI-retrieval privacy, area-coverage utility, the 25-point grid.
func newDefinition() (core.Definition, error) {
	pr, err := metrics.NewPOIRetrieval(metrics.DefaultPOIRetrievalConfig())
	if err != nil {
		return core.Definition{}, err
	}
	ut, err := metrics.NewAreaCoverage(metrics.DefaultAreaCoverageConfig())
	if err != nil {
		return core.Definition{}, err
	}
	def := core.Definition{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Privacy:    pr,
		Utility:    ut,
		GridPoints: 25,
		Repeats:    2,
		Seed:       gatewaySeed,
	}
	return def, def.Validate()
}

// cfHalf is what one half of a configure run measured.
type cfHalf struct {
	setup, configure, cpuPerRec []float64
	sweepRecs                   float64
	eps                         []float64
	apply                       *cycleStats
	// traced half: per-operation layer times, and the one-off side
	// measurements of the sweep's inner layers
	sweepS, fitMS, propsS, cfgMS  []float64
	protectS, prepareS, evaluateS float64
	protectNS                     float64
}

func runConfigure(ctx context.Context, b *bench) error {
	gen := synth.DefaultConfig()
	gen.Seed = b.opts.seed
	gen.NumDrivers, gen.Duration = cfDrivers, cfDuration
	records := cfRecords
	if b.opts.small {
		gen.NumDrivers, gen.Duration, records = 8, 8*time.Hour, 2400
	}
	fl, err := synth.Generate(gen, nil)
	if err != nil {
		return err
	}
	ds, err := firstRecords(fl.Dataset, records)
	if err != nil {
		return err
	}
	// The deployment is applied to every driver of the fleet, not to the
	// cut dataset: how many drivers the cut keeps depends on the seed,
	// and a restart's time follows the user count (1.2 ms on one seed,
	// 0.85 ms on another).
	f, err := datasetFleet(fl.Dataset)
	if err != nil {
		return err
	}
	plain, traced, err := halves(b, func(rec *recorder) (*cfHalf, error) {
		return configureHalf(ctx, b, ds, f, rec)
	})
	if err != nil {
		return err
	}
	// ε is bit-identical across every configure of one seed, traced
	// composition included, and sits in the paper's decade.
	all := append(append([]float64(nil), plain.eps...), traced.epsOrNil()...)
	bad := 0
	for _, e := range all {
		if math.Float64bits(e) != math.Float64bits(all[0]) || e < 0.001 || e > 0.1 {
			bad++
		}
	}
	b.check(len(all), bad, fmt.Sprintf("configured ε in [0.001, 0.1] and identical across runs (got %v)", all))

	b.set("setup_s", lowerQuartile(plain.setup), len(plain.setup))
	b.set("configure_s", lowerQuartile(plain.configure), len(plain.configure))
	b.set("throughput_pts_s", plain.sweepRecs/lowerQuartile(plain.configure), len(plain.configure))
	b.set("cpu_us_per_rec", median(plain.cpuPerRec), len(plain.cpuPerRec))
	a := plain.apply
	b.setLatency(a.windowLat)
	b.set("recover_s", lowerQuartile(a.recover), len(a.recover))
	if traced == nil {
		return nil
	}
	t := traced
	b.set("eval.sweep_s", median(t.sweepS), len(t.sweepS))
	b.set("model.fit_ms", median(t.fitMS), len(t.fitMS))
	b.set("core.properties_s", median(t.propsS), len(t.propsS))
	b.set("core.configure_ms", median(t.cfgMS), len(t.cfgMS))
	b.set("lppm.protect_dataset_s", t.protectS, 1)
	b.set("metrics.prepare_s", t.prepareS, 1)
	b.set("metrics.evaluate_s", t.evaluateS, 1)
	ta := t.apply
	b.setQuantiles("service.ingest_ns_p50", "service.ingest_ns_p99", nsToFloat(ta.ingestNS), 1)
	b.setQuantiles("service.window_ns_p50", "service.window_ns_p99", nsToFloat(ta.serviceNS), 1)
	b.set("service.records_per_flush", ta.recsPerFlush, 1)
	b.set("service.dropped", float64(ta.dropped), 1)
	b.set("lppm.protect_ns_per_rec", t.protectNS, 1)
	setCodec(b, datasetRecords(ds))
	ratio, roots := b.rec.unaccounted("e2e.configure")
	b.set("span.unaccounted_ratio", ratio, roots)
	b.set("span.overhead_ratio", median(t.configure)/median(plain.configure)-1, len(t.configure))
	return nil
}

func (h *cfHalf) epsOrNil() []float64 {
	if h == nil {
		return nil
	}
	return h.eps
}

// configureHalf times definition set-up, then configures on ds until most
// of the half's budget is spent (at least once), then applies the
// deployment to the fleet f in repeated gateway passes for the rest.
func configureHalf(ctx context.Context, b *bench, ds *trace.Dataset, f *fleet, rec *recorder) (*cfHalf, error) {
	h := &cfHalf{}
	runtime.GC() // time set-up on a settled heap, not behind the fleet's garbage
	for i := 0; i < cfSetups; i++ {
		if err := h.timeSetup(); err != nil {
			return nil, err
		}
	}
	def, err := newDefinition()
	if err != nil {
		return nil, err
	}
	h.sweepRecs = float64(def.GridPoints * def.Repeats * ds.NumRecords())
	budget := b.budget()
	start := time.Now()
	var dep *core.Deployment
	for i := 0; i == 0 || time.Since(start) < 7*budget/10; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, cpu0 := time.Now(), cpuSeconds()
		var d *core.Deployment
		if rec == nil {
			a, err := core.Analyze(ctx, def, ds)
			if err != nil {
				return nil, err
			}
			d, err = a.Deploy(paperObjectives)
			if err != nil {
				b.check(1, 1, "configure at the paper's objectives: "+err.Error())
				return nil, err
			}
		} else {
			if d, err = analyzeTraced(ctx, h, def, ds, uint64(i+1), rec); err != nil {
				return nil, err
			}
		}
		h.configure = append(h.configure, time.Since(t).Seconds())
		h.cpuPerRec = append(h.cpuPerRec, (cpuSeconds()-cpu0)/h.sweepRecs*1e6)
		h.eps = append(h.eps, d.Params[def.Param])
		b.check(1, 0, "configure")
		dep = d
	}
	if rec != nil {
		if err := sweepLayers(ctx, h, def, ds); err != nil {
			return nil, err
		}
	}

	// Apply the deployment: the fleet through an in-process gateway in
	// windows, restarted after every pass.
	cfg := gatewayConfig(dep, cfWindow, nil)
	rounds := cfRounds
	if b.opts.small {
		rounds = 64
	}
	counts := make([]int, len(f.users))
	for u := range counts {
		counts[u] = rounds + 1
	}
	ref, err := reference(ctx, cfg, f, 0, counts)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	pre := make([]*stream, len(ref))
	for u, s := range ref {
		pre[u], _ = s.split(rounds / cfWindow)
	}
	// Without a journal a restart starts every stream afresh: the record
	// after it protects like a new user's first record.
	post, err := reference(ctx, cfg, f, rounds, counts)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	h.apply = &cycleStats{}
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		c := &cycle{cfg: cfg, f: f, rounds: rounds, rec: rec, phase: 1000 + i}
		r, err := c.run(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("apply pass %d: %w", i, err)
		}
		checkCycle(b, r, pre, post, "applied deployment")
		h.apply.add(r)
		if err := h.timeSetup(); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		h.protectNS = protectCost(cfg, f, rounds, len(f.users))
	}
	return h, nil
}

// timeSetup adds one setup_s sample: the mean time to build and validate
// the definition over cfSetupBatch definitions.
func (h *cfHalf) timeSetup() error {
	t := time.Now()
	for j := 0; j < cfSetupBatch; j++ {
		if _, err := newDefinition(); err != nil {
			return err
		}
	}
	h.setup = append(h.setup, time.Since(t).Seconds()/cfSetupBatch)
	return nil
}

// analyzeTraced is core.Analyze followed by Analysis.Deploy, composed from
// the same public calls in the same order so each layer gets its span:
// eval.Run (the sweep), model.FitLogLinear for both metrics, the dataset
// property screening, and Deploy (configure). Its ε must be bit-identical
// to core.Analyze's, which the run checks.
func analyzeTraced(ctx context.Context, h *cfHalf, def core.Definition, ds *trace.Dataset, id uint64, rec *recorder) (*core.Deployment, error) {
	start := rec.now()
	var spec lppm.ParamSpec
	for _, s := range def.Mechanism.Params() {
		if s.Name == def.Param {
			spec = s
		}
	}
	sweep := &eval.Sweep{
		Mechanism: def.Mechanism,
		Param:     def.Param,
		Values:    stat.LogSpace(spec.Min, spec.Max, def.GridPoints),
		Fixed:     lppm.Defaults(def.Mechanism),
		Metrics:   []metrics.Metric{def.Privacy, def.Utility},
		Repeats:   def.Repeats,
		Seed:      def.Seed,
		Workers:   def.Workers,
	}
	t := rec.now()
	res, err := eval.Run(ctx, sweep, ds)
	if err != nil {
		return nil, err
	}
	h.sweepS = append(h.sweepS, spanEnd(rec, "eval.sweep", id, t)/1e9)

	t = rec.now()
	fit := func(m metrics.Metric) (model.LogLinear, error) {
		xs, ys, err := res.Series(m.Name())
		if err != nil {
			return model.LogLinear{}, err
		}
		return model.FitLogLinear(xs, ys, def.SaturationTolFrac)
	}
	pm, err := fit(def.Privacy)
	if err != nil {
		return nil, err
	}
	um, err := fit(def.Utility)
	if err != nil {
		return nil, err
	}
	h.fitMS = append(h.fitMS, spanEnd(rec, "model.fit", id, t)/1e6)

	t = rec.now()
	props, err := screenProperties(def, ds, res)
	if err != nil {
		return nil, err
	}
	h.propsS = append(h.propsS, spanEnd(rec, "core.properties", id, t)/1e9)

	t = rec.now()
	a := &core.Analysis{Definition: def, Sweep: res, PrivacyModel: pm, UtilityModel: um, Properties: props}
	dep, err := a.Deploy(paperObjectives)
	if err != nil {
		return nil, err
	}
	h.cfgMS = append(h.cfgMS, spanEnd(rec, "core.configure", id, t)/1e6)
	spanEnd(rec, "e2e.configure", id, start)
	return dep, nil
}

// spanEnd records a span from start to now and returns its length in ns.
func spanEnd(rec *recorder, name string, id uint64, start int64) float64 {
	end := rec.now()
	rec.add(name, id, start, end)
	return float64(end - start)
}

// screenProperties is core's dataset-property screening from its public
// parts: per-user property vectors correlated with per-user privacy at the
// middle of the sweep.
func screenProperties(def core.Definition, ds *trace.Dataset, res *eval.Result) (*model.PropertySelection, error) {
	props := trace.DatasetProperties(ds, def.PropertyCellMeters)
	rows := make([][]float64, len(props))
	for i, p := range props {
		rows[i] = p.PropertyVector()
	}
	if len(rows) < 3 {
		return &model.PropertySelection{Names: trace.PropertyNames()}, nil
	}
	mid := res.Points[len(res.Points)/2]
	perUser := mid.PerUser[def.Privacy.Name()]
	users := ds.Users()
	vals := make([]float64, len(users))
	for i, u := range users {
		vals[i] = perUser[u]
	}
	return model.SelectProperties(trace.PropertyNames(), rows, vals, 0.2, 0.5)
}

// sweepLayers times, once per traced half, the layers the sweep runs
// inside eval: protecting the whole dataset at every grid value
// (lppm.ProtectDataset), preparing both metrics for every user
// (metrics.Prepare) and evaluating them on every protected trace — one
// repeat, serially, so each figure is that layer's own busy time.
func sweepLayers(ctx context.Context, h *cfHalf, def core.Definition, ds *trace.Dataset) error {
	ms := []metrics.Metric{def.Privacy, def.Utility}
	users := ds.Users()
	prepared := make([][]metrics.PreparedMetric, len(users))
	t := time.Now()
	for i, u := range users {
		for _, m := range ms {
			prepared[i] = append(prepared[i], metrics.Prepare(m, ds.Trace(u)))
		}
	}
	h.prepareS = time.Since(t).Seconds()
	var spec lppm.ParamSpec
	for _, s := range def.Mechanism.Params() {
		if s.Name == def.Param {
			spec = s
		}
	}
	root := rng.New(def.Seed)
	for vi, v := range stat.LogSpace(spec.Min, spec.Max, def.GridPoints) {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := lppm.Defaults(def.Mechanism)
		p[def.Param] = v
		t = time.Now()
		pds, err := lppm.ProtectDataset(ds, def.Mechanism, p, root.Split(int64(vi)))
		h.protectS += time.Since(t).Seconds()
		if err != nil {
			return err
		}
		t = time.Now()
		for i, u := range users {
			for _, pm := range prepared[i] {
				if _, err := pm.Evaluate(pds.Trace(u)); err != nil {
					return err
				}
			}
		}
		h.evaluateS += time.Since(t).Seconds()
	}
	return nil
}

// datasetFleet wraps a dataset's traces as a fleet for the gateway cycle:
// record i of a user cycles through the user's trace, each lap moved past
// the longest trace so per-user time order holds.
func datasetFleet(ds *trace.Dataset) (*fleet, error) {
	f := &fleet{index: make(map[string]int)}
	users := ds.Users()
	sort.Strings(users)
	for _, u := range users {
		t := ds.Trace(u)
		if t.Len() == 0 {
			continue
		}
		f.index[u] = len(f.users)
		f.users = append(f.users, u)
		f.base = append(f.base, t.Records)
		f.span = max(f.span, t.Duration()+time.Hour)
	}
	if len(f.users) == 0 {
		return nil, fmt.Errorf("empty dataset")
	}
	return f, nil
}

// firstRecords keeps whole traces, in user order, until n records are
// kept, cutting the last trace short to make exactly n.
func firstRecords(ds *trace.Dataset, n int) (*trace.Dataset, error) {
	out := trace.NewDataset()
	users := ds.Users()
	sort.Strings(users)
	for _, u := range users {
		if n == 0 {
			break
		}
		recs := ds.Trace(u).Records
		if len(recs) > n {
			recs = recs[:n]
		}
		t, err := trace.NewTrace(u, recs)
		if err != nil {
			return nil, err
		}
		out.Add(t)
		n -= len(recs)
	}
	if n > 0 {
		return nil, fmt.Errorf("fleet has %d records too few", n)
	}
	return out, nil
}

// datasetRecords lists every record of the dataset, user by user.
func datasetRecords(ds *trace.Dataset) []trace.Record {
	var out []trace.Record
	for _, t := range ds.Traces() {
		out = append(out, t.Records...)
	}
	return out
}
