package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Controller closes the paper's Define → Model → Configure loop over live
// traffic: it taps a sampled fraction of the gateway's flushed windows,
// maintains per-user sliding aggregates of (actual, protected) records,
// estimates the deployed configuration's observed privacy and utility with
// the definition's own metrics, and — when the estimates drift outside the
// objectives — re-runs the whole analysis on the observed data and
// hot-swaps the resulting deployment into the gateway (Gateway.Swap), per-
// user overrides included. The gateway keeps serving throughout; the swap
// is visible only at window boundaries and loses no record.
//
// A Controller is safe for concurrent use; its per-user samplers run on
// shard goroutines and only the sampled fraction touches the shared
// sliding state, while the expensive re-analysis runs in whichever
// goroutine calls Evaluate (typically Run's).
type Controller struct {
	gw  *Gateway
	cfg ControllerConfig

	sampleSeed int64

	// cache holds prepared actual-side metric state (and memoized dataset
	// properties) across evaluations and reconfigurations. It is touched
	// only from Evaluate's goroutine — never from shard goroutines — and
	// its entries are keyed by the memoized per-user traces snapshot
	// hands out, so a user whose aggregate is unchanged between
	// evaluations re-uses both the flattened trace and the prepared
	// evaluators built on it.
	cache *core.Cache

	mu      sync.Mutex
	users   map[string]*observed
	windows uint64
	records uint64
	// fresh counts windows observed since the last swap; the evaluation
	// gate uses it so a freshly swapped deployment is judged on its own
	// output, never on the predecessor's (see Evaluate).
	fresh uint64
	// minGen is the lowest deployment generation observe accepts; a
	// shard mid-flush when a swap lands would otherwise deliver an
	// old-generation window into the freshly reset aggregates.
	minGen uint64
	// prevEvalWindows is the windows counter at the previous evaluation;
	// users not observed since then are evicted (see Evaluate).
	prevEvalWindows uint64
	obj             model.Objectives
	deployed        *core.Deployment
	evals           uint64
	swaps           uint64
	overrideSkips   uint64
	lastPriv        float64
	lastUtil        float64
	lastErr         error
}

// observed is one user's sliding aggregate of sampled traffic, kept as
// whole (actual, protected) window pairs and trimmed oldest-window-first
// once the actual side exceeds WindowRecords. Trimming whole pairs keeps
// the two sides covering the same stretch of stream even for mechanisms
// that change the record count (dummies inject, sampling drops) — capping
// each side independently would compare different time spans. seen marks
// the controller's global window counter at the last observation and
// drives idle-user eviction, so the aggregate table tracks the users
// actually on the stream instead of growing with everyone ever sampled.
type observed struct {
	wins      []obsWindow
	actualLen int
	seen      uint64
	// flatA/flatP memoize the flattened (actual, protected) traces built
	// by the last snapshot, valid while flatSeen == seen (no window
	// observed since). They keep repeated evaluations of a quiet user
	// from re-flattening — and, because the traces are pointer-stable,
	// let the metric cache keep that user's prepared evaluators too.
	flatA, flatP *trace.Trace
	flatSeen     uint64
}

// obsWindow is one sampled window: the records the gateway saw and the
// records it emitted for them.
type obsWindow struct {
	actual    []trace.Record
	protected []trace.Record
}

// sampler is the controller's TapUser: it decides which of one user's
// windows are observed via a per-user seed indexed by the user's own window
// counter, so the decision sequence is a pure function of (controller seed,
// user, window index) and identical-seed runs sample identically however
// shard goroutines interleave. The gateway caches it on the user's stream
// and calls it from that stream's single shard goroutine, so the counter
// needs no synchronization and the flush hot path takes no lock at all;
// only Observe — the sampled fraction — touches the controller's mutex.
type sampler struct {
	c    *Controller
	user string
	seed int64
	n    int64
}

// Sample implements TapUser: a seeded Bernoulli decision per flushed
// window, deterministic under any shard interleaving.
func (s *sampler) Sample(n int) bool {
	ok := s.c.cfg.SampleFrac >= 1 || rng.MixUnit(s.seed, s.n) < s.c.cfg.SampleFrac
	s.n++
	return ok
}

// Observe implements TapUser: it appends the window pair to the user's
// sliding aggregate. The actual slice is owned (the gateway copies);
// protected is copied before retention.
func (s *sampler) Observe(gen uint64, actual, protected []trace.Record) {
	s.c.observe(s.user, gen, actual, protected)
}

// ControllerConfig parameterizes a reconfiguration controller.
type ControllerConfig struct {
	// Definition is the analysis to re-run on drift. Its Mechanism must
	// match the deployment's; its metrics define what "privacy" and
	// "utility" mean for both the online estimates and the re-analysis.
	Definition core.Definition
	// Objectives are the designer targets drift is judged against and the
	// re-analysis configures for; SetObjectives can tighten or loosen
	// them mid-stream.
	Objectives model.Objectives
	// SampleFrac is the fraction of flushed windows observed, in (0, 1];
	// 0 uses 0.05. Sampling is the controller's only hot-path cost.
	SampleFrac float64
	// WindowRecords caps each user's sliding aggregate (per side); 0 uses
	// 512. Older records slide out, so estimates track current mobility.
	WindowRecords int
	// MinWindows is how many sampled windows must accumulate before an
	// evaluation judges drift; 0 uses 8.
	MinWindows int
	// MinUserRecords is the least sampled records a user needs before
	// entering the estimates and the re-analysis dataset; 0 uses 8.
	MinUserRecords int
	// Tolerance is the relative slack on the objectives before a drift
	// triggers reconfiguration (0.1 = reconfigure only past 10% beyond
	// the bound, keeping the loop from hunting on estimate noise); 0
	// uses 0.1.
	Tolerance float64
	// PerUserOverrides also derives per-user parameter overrides for
	// users whose observed privacy stands out from the population the
	// shared model was fitted on.
	PerUserOverrides bool
	// Seed drives sampling and the re-analysis seeds.
	Seed int64
}

// normalize fills defaults and validates.
func (c *ControllerConfig) normalize() error {
	if c.Definition.Mechanism == nil {
		return fmt.Errorf("service: controller needs a definition mechanism")
	}
	if c.Definition.Privacy == nil || c.Definition.Utility == nil {
		return fmt.Errorf("service: controller needs privacy and utility metrics")
	}
	// Fail at construction, not inside every periodic Evaluate: an
	// un-analyzable definition (multi-parameter mechanism without Param,
	// misspelled Param) would otherwise only ever surface in LastErr.
	if err := c.Definition.Validate(); err != nil {
		return err
	}
	if err := c.Objectives.Validate(); err != nil {
		return err
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.05
	}
	if c.SampleFrac < 0 || c.SampleFrac > 1 {
		return fmt.Errorf("service: SampleFrac must be in (0, 1], got %v", c.SampleFrac)
	}
	if c.WindowRecords == 0 {
		c.WindowRecords = 512
	}
	if c.WindowRecords < 1 {
		return fmt.Errorf("service: WindowRecords must be >= 1, got %d", c.WindowRecords)
	}
	if c.MinWindows == 0 {
		c.MinWindows = 8
	}
	if c.MinWindows < 0 {
		return fmt.Errorf("service: MinWindows must be non-negative, got %d", c.MinWindows)
	}
	if c.MinUserRecords == 0 {
		c.MinUserRecords = 8
	}
	if c.MinUserRecords < 0 {
		return fmt.Errorf("service: MinUserRecords must be non-negative, got %d", c.MinUserRecords)
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.1
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("service: Tolerance must be non-negative, got %v", c.Tolerance)
	}
	return nil
}

// ControllerStats is a point-in-time snapshot of the control loop.
type ControllerStats struct {
	// WindowsObserved and RecordsObserved count the sampled stream.
	WindowsObserved, RecordsObserved uint64
	// UsersTracked is the number of users with live sliding aggregates.
	UsersTracked int
	// Evaluations counts drift checks; Swaps counts reconfigurations
	// that actually re-deployed into the gateway.
	Evaluations, Swaps uint64
	// OverrideSkips counts per-user overrides the mechanism rejected
	// during reconfiguration; those users keep the shared value. A
	// steadily growing count means the inverted per-user targets keep
	// landing outside the mechanism's validity — worth an operator look.
	OverrideSkips uint64
	// LastPrivacy and LastUtility are the most recent online estimates
	// (NaN-free only after the first evaluation with enough data).
	LastPrivacy, LastUtility float64
	// LastErr is the most recent evaluation failure, if any.
	LastErr error
}

// NewController builds a controller for a gateway serving the given
// deployment and attaches it as the gateway's tap. The deployment is the
// drift baseline; its mechanism must match the definition's.
func NewController(g *Gateway, dep *core.Deployment, cfg ControllerConfig) (*Controller, error) {
	if g == nil {
		return nil, fmt.Errorf("service: controller needs a gateway")
	}
	if dep == nil || dep.Mechanism == nil {
		return nil, fmt.Errorf("service: controller needs a deployment")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Definition.Mechanism.Name() != dep.Mechanism.Name() {
		return nil, fmt.Errorf("service: definition mechanism %q does not match deployed %q",
			cfg.Definition.Mechanism.Name(), dep.Mechanism.Name())
	}
	c := &Controller{
		gw:         g,
		cfg:        cfg,
		sampleSeed: rng.ChildSeed(cfg.Seed, "controller-sample"),
		cache:      core.NewCache(cfg.Definition),
		users:      make(map[string]*observed),
		obj:        cfg.Objectives,
		deployed:   dep.Clone(),
	}
	c.registerMetrics(g.Obs())
	g.SetTap(c)
	return c, nil
}

// registerMetrics exports the control loop's counters and latest
// estimates on the gateway's registry through one collector: each Gather
// takes one Stats snapshot (one hold of the controller mutex), and the
// control loop pays nothing.
func (c *Controller) registerMetrics(r *obs.Registry) {
	r.Collect("controller", func(emit obs.Emit) {
		st := c.Stats()
		emit("lppm_controller_windows_observed_total", "sampled windows delivered to the controller",
			nil, obs.KindCounter, float64(st.WindowsObserved))
		emit("lppm_controller_records_observed_total", "records in sampled windows",
			nil, obs.KindCounter, float64(st.RecordsObserved))
		emit("lppm_controller_evaluations_total", "drift checks that judged the objectives",
			nil, obs.KindCounter, float64(st.Evaluations))
		emit("lppm_controller_swaps_total", "reconfigurations re-deployed into the gateway",
			nil, obs.KindCounter, float64(st.Swaps))
		emit("lppm_controller_override_skips_total", "per-user overrides rejected during reconfiguration",
			nil, obs.KindCounter, float64(st.OverrideSkips))
		emit("lppm_controller_users_tracked", "users with live sliding aggregates",
			nil, obs.KindGauge, float64(st.UsersTracked))
		emit("lppm_controller_last_privacy", "most recent online privacy estimate",
			nil, obs.KindGauge, st.LastPrivacy)
		emit("lppm_controller_last_utility", "most recent online utility estimate",
			nil, obs.KindGauge, st.LastUtility)
	})
}

// User implements Tap: one sampler per user stream, seeded by name.
func (c *Controller) User(user string) TapUser {
	return &sampler{c: c, user: user, seed: rng.ChildSeed(c.sampleSeed, user)}
}

// observe appends a sampled window pair to the user's sliding aggregate and
// trims oldest pairs past the cap (always keeping at least one). Windows
// protected under a deployment older than the last swap are dropped: they
// are evidence about the predecessor, not the configuration under watch.
func (c *Controller) observe(user string, gen uint64, actual, protected []trace.Record) {
	// The actual slice is already the tap's own copy; protected is shared
	// with the Output consumer, so copy before retaining.
	pcopy := append(make([]trace.Record, 0, len(protected)), protected...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen < c.minGen {
		return
	}
	o := c.users[user]
	if o == nil {
		o = &observed{}
		c.users[user] = o
	}
	o.wins = append(o.wins, obsWindow{actual: actual, protected: pcopy})
	o.actualLen += len(actual)
	drop := 0
	for o.actualLen > c.cfg.WindowRecords && drop < len(o.wins)-1 {
		o.actualLen -= len(o.wins[drop].actual)
		drop++
	}
	if drop > 0 {
		// Re-allocate so the dropped windows don't pin the backing array.
		o.wins = append(make([]obsWindow, 0, len(o.wins)-drop), o.wins[drop:]...)
	}
	c.windows++
	c.fresh++
	c.records += uint64(len(actual))
	o.seen = c.windows
}

// SetObjectives replaces the drift targets mid-stream — the operator
// tightening (or relaxing) the deployment's contract. The next evaluation
// judges the observed estimates against the new objectives and
// reconfigures if they no longer hold.
func (c *Controller) SetObjectives(obj model.Objectives) error {
	if err := obj.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.obj = obj
	c.mu.Unlock()
	return nil
}

// Objectives returns the current drift targets.
func (c *Controller) Objectives() model.Objectives {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obj
}

// Deployed returns (a clone of) the deployment the controller last pushed
// to the gateway — the initial one until the first swap.
func (c *Controller) Deployed() *core.Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deployed.Clone()
}

// Stats snapshots the control loop's counters and latest estimates.
func (c *Controller) Stats() ControllerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ControllerStats{
		WindowsObserved: c.windows,
		RecordsObserved: c.records,
		UsersTracked:    len(c.users),
		Evaluations:     c.evals,
		Swaps:           c.swaps,
		OverrideSkips:   c.overrideSkips,
		LastPrivacy:     c.lastPriv,
		LastUtility:     c.lastUtil,
		LastErr:         c.lastErr,
	}
}

// estimate is one user's observed metric outcome.
type estimate struct {
	user       string
	priv, util float64
}

// snapshot captures the sliding aggregates as per-user traces, in sorted
// user order for determinism. Users below MinUserRecords are skipped — too
// little evidence to estimate or to re-model on. Only the window-list
// headers are taken under the lock (safe: observe appends past the
// captured length or reallocates, and trimming reallocates); flattening
// and trace construction — which copy and sort every record — run after
// release, so shard flushes blocked on Observe never wait behind them.
// Flattened traces are memoized on the aggregate: a user with no new
// window since the last snapshot hands back the same *trace.Trace, so
// repeated evaluations skip the flatten AND keep the prepared metric state
// the cache built on that trace. fresh is the windows-since-last-swap
// count gating the evaluation.
func (c *Controller) snapshot() (actuals, protecteds map[string]*trace.Trace, users []string, obj model.Objectives, fresh uint64) {
	type raw struct {
		user         string
		o            *observed
		wins         []obsWindow
		seen         uint64
		flatA, flatP *trace.Trace
	}
	c.mu.Lock()
	raws := make([]raw, 0, len(c.users))
	for u, o := range c.users {
		if o.actualLen < c.cfg.MinUserRecords {
			continue
		}
		rw := raw{user: u, o: o, wins: o.wins, seen: o.seen}
		if o.flatA != nil && o.flatSeen == o.seen {
			rw.flatA, rw.flatP = o.flatA, o.flatP
		}
		raws = append(raws, rw)
	}
	obj = c.obj
	fresh = c.fresh
	c.mu.Unlock()
	// raws was collected in map order; sort before anything downstream
	// consumes it, so the flatten loop, the users slice, and every later
	// float accumulation over the estimates see one deterministic order.
	sort.Slice(raws, func(i, j int) bool { return raws[i].user < raws[j].user })

	actuals = make(map[string]*trace.Trace, len(raws))
	protecteds = make(map[string]*trace.Trace, len(raws))
	built := raws[:0]
	for _, r := range raws {
		if r.flatA == nil {
			var actual, protected []trace.Record
			for _, w := range r.wins {
				actual = append(actual, w.actual...)
				protected = append(protected, w.protected...)
			}
			at, err := trace.NewTrace(r.user, actual)
			if err != nil {
				continue
			}
			pt, err := trace.NewTrace(r.user, protected)
			if err != nil {
				continue
			}
			r.flatA, r.flatP = at, pt
			built = append(built, r)
		}
		actuals[r.user], protecteds[r.user] = r.flatA, r.flatP
		users = append(users, r.user)
	}
	sort.Strings(users)
	if len(built) > 0 {
		// Publish the freshly flattened traces, unless the user observed
		// another window (or was replaced) while we flattened — a stale
		// memo would then serve outdated aggregates to the next snapshot.
		c.mu.Lock()
		for _, r := range built {
			if c.users[r.user] == r.o && r.o.seen == r.seen {
				r.o.flatA, r.o.flatP, r.o.flatSeen = r.flatA, r.flatP, r.seen
			}
		}
		c.mu.Unlock()
	}
	return actuals, protecteds, users, obj, fresh
}

// Evaluate runs one pass of the control loop: estimate the observed privacy
// and utility on the sampled aggregates, judge them against the objectives,
// and on drift re-run the full analysis on the observed data and hot-swap
// the resulting deployment into the gateway. It reports whether a swap
// happened. With too little observed data it is a no-op. Expensive on the
// drift path (a full parameter sweep); meant for Run's cadence or explicit
// calls, never for shard goroutines.
func (c *Controller) Evaluate(ctx context.Context) (swapped bool, err error) {
	evaluated := false
	defer func() {
		// Record the outcome of real evaluations only: a no-op pass (too
		// little fresh data) must not clear a prior reconfiguration
		// failure the operator has yet to see.
		if evaluated || err != nil {
			c.mu.Lock()
			c.lastErr = err
			c.mu.Unlock()
		}
	}()
	// Cheap gate before the expensive snapshot: an idle stream's periodic
	// ticks must not pay the flatten-and-sort of every user's aggregate
	// just to no-op.
	c.mu.Lock()
	fresh := c.fresh
	tracked := len(c.users)
	c.mu.Unlock()
	if fresh < uint64(c.cfg.MinWindows) || tracked == 0 {
		return false, nil
	}
	// Control-plane span: passes the cheap gate rarely, so it pays its
	// own clock reads. Covers snapshot and estimation; on drift the
	// redeploy and swap run as child spans.
	esp := c.gw.tracer.ForceRoot("controller.evaluate")
	defer func() {
		if swapped {
			esp.Attr("swapped", "true")
		}
		esp.EndErr(err)
	}()
	actuals, protecteds, users, obj, _ := c.snapshot()
	if len(users) == 0 {
		return false, nil
	}
	// Evict users with no sampled window since the previous evaluation:
	// a long-running controller must track the users on the stream, not
	// accumulate aggregates for everyone ever sampled. Evicted users that
	// return simply rebuild their window — and their prepared metric
	// state, which is dropped with them.
	c.mu.Lock()
	var evicted []string
	for u, o := range c.users {
		if o.seen <= c.prevEvalWindows {
			delete(c.users, u)
			evicted = append(evicted, u)
		}
	}
	c.prevEvalWindows = c.windows
	c.mu.Unlock()
	sort.Strings(evicted) // collected in map order; drop prepared state deterministically
	// Drop evicted users' prepared state on the way out, not here: the
	// snapshot above still carries them, so both the estimate loop and a
	// drift re-analysis would recreate the entries a Forget-now dropped —
	// leaking them forever, since an evicted user is never For()'d again.
	defer func() {
		for _, u := range evicted {
			c.cache.MetricCache().Forget(u)
		}
	}()

	ests := make([]estimate, 0, len(users))
	var privSum, utilSum float64
	for _, u := range users {
		// Prepared evaluators, indexed as core.NewCache orders them:
		// privacy then utility. Users whose aggregate is unchanged since
		// the last evaluation hit the cache (snapshot memoizes their
		// traces, so the identity check passes) and skip the actual-side
		// metric work entirely.
		prep := c.cache.MetricCache().For(u, actuals[u])
		pv, perr := prep[0].Evaluate(protecteds[u])
		if perr != nil {
			continue
		}
		uv, uerr := prep[1].Evaluate(protecteds[u])
		if uerr != nil {
			continue
		}
		ests = append(ests, estimate{user: u, priv: pv, util: uv})
		privSum += pv
		utilSum += uv
	}
	esp.AttrInt("users", int64(len(users))).AttrInt("estimates", int64(len(ests)))
	if len(ests) == 0 {
		return false, nil
	}
	evaluated = true
	priv := privSum / float64(len(ests))
	util := utilSum / float64(len(ests))
	esp.AttrFloat("privacy", priv).AttrFloat("utility", util)

	c.mu.Lock()
	c.evals++
	evalIdx := c.evals
	c.lastPriv, c.lastUtil = priv, util
	c.mu.Unlock()

	tol := c.cfg.Tolerance
	if priv <= obj.MaxPrivacy*(1+tol) && util >= obj.MinUtility*(1-tol) {
		return false, nil // objectives hold on the observed stream
	}

	// Drift: re-run Define → Model → Configure on what the stream
	// actually carried, then make the result live.
	esp.Attr("drift", "true")
	ds := trace.NewDataset()
	for _, u := range users {
		ds.Add(actuals[u])
	}
	def := c.cfg.Definition
	// Deterministic but fresh per evaluation: re-analysis draws must not
	// correlate across evaluations or with the serving streams.
	def.Seed = rng.New(c.cfg.Seed).Named("controller-eval").Split(int64(evalIdx)).Seed()
	// The re-analysis sweeps the very traces the estimates above were
	// computed on (ds aliases the snapshot), so the cached prepared
	// evaluators carry straight into the sweep's inner loop.
	rsp := c.gw.tracer.Child(esp.Context(), "controller.redeploy")
	dep, analysis, rerr := core.RedeployCached(ctx, def, ds, obj, c.cache)
	if rerr != nil {
		// Analysis failure or objectives infeasible on observed data:
		// keep serving the old configuration rather than shipping
		// nothing.
		rsp.EndErr(rerr)
		return false, fmt.Errorf("service: drift redeploy: %w", rerr)
	}
	rsp.End()
	if c.cfg.PerUserOverrides {
		c.deriveOverrides(dep, analysis, ests, priv, obj)
	}
	ssp := c.gw.tracer.Child(esp.Context(), "controller.swap")
	if serr := c.gw.Swap(dep); serr != nil {
		ssp.EndErr(serr)
		return false, fmt.Errorf("service: swap: %w", serr)
	}
	ssp.End()
	c.mu.Lock()
	c.swaps++
	c.deployed = dep.Clone()
	// Reset the aggregates: they hold the predecessor's output, and
	// judging the new deployment on it would re-trigger a full
	// re-analysis every tick until the old records slid out. The fresh
	// counter makes the next evaluations no-ops until the new
	// configuration has produced MinWindows windows of its own, and
	// minGen keeps shards still flushing an old-generation window from
	// smuggling predecessor output into the reset aggregates. (If a
	// concurrent swap raced ours, Generation is even higher — a stricter
	// cutoff, still safe.)
	c.users = make(map[string]*observed)
	c.fresh = 0
	c.prevEvalWindows = c.windows
	c.minGen = c.gw.Generation()
	c.mu.Unlock()
	// The aggregates were reset; the prepared state and the property memo
	// are keyed to traces that will never be handed out again, so drop
	// them too rather than pin the whole pre-swap snapshot.
	c.cache.Reset()
	return true, nil
}

// deriveOverrides personalizes the freshly configured deployment: a user
// whose observed privacy sits `offset` above the population mean is
// expected — treating the per-user deviation as additive on the fitted
// log-linear model — to land at Predicted+offset under the new value, so
// users the global value cannot carry below the bound get the parameter
// value the model inverts for their own target, clamped to the model's
// validity and the mechanism's declared range.
func (c *Controller) deriveOverrides(dep *core.Deployment, analysis *core.Analysis, ests []estimate, meanPriv float64, obj model.Objectives) {
	pm := analysis.PrivacyModel
	var spec lppm.ParamSpec
	found := false
	for _, s := range dep.Mechanism.Params() {
		if s.Name == analysis.Definition.Param {
			spec, found = s, true
			break
		}
	}
	if !found {
		return
	}
	var skips uint64
	for _, e := range ests {
		offset := e.priv - meanPriv
		target := obj.MaxPrivacy - offset
		if target >= dep.Configuration.PredictedPrivacy {
			continue // the shared value already covers this user
		}
		v, err := pm.Invert(target)
		if err != nil {
			continue
		}
		v = pm.ClampToValidity(v)
		if v < spec.Min {
			v = spec.Min
		}
		if v > spec.Max {
			v = spec.Max
		}
		if v == dep.Configuration.Value { //lppm:allow floatcmp -- the clamped inversion either lands bit-exactly on the shared value (nothing to override) or differs; approximate equality would suppress real overrides
			continue
		}
		// Override validates against the mechanism; a failure only means
		// this user keeps the shared value — but it is counted, so a
		// systematically infeasible per-user target shows up in Stats
		// instead of vanishing.
		if err := dep.Override(e.user, lppm.Params{analysis.Definition.Param: v}); err != nil {
			skips++
		}
	}
	if skips > 0 {
		c.mu.Lock()
		c.overrideSkips += skips
		c.mu.Unlock()
	}
}

// Run drives the loop: an Evaluate every interval until the context is
// canceled or the gateway shuts down. Evaluation errors are recorded in
// Stats and do not stop the loop — a middleware controller outlives
// transient infeasibility. Run blocks; start it in its own goroutine.
func (c *Controller) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 30 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.gw.done:
			return
		case <-t.C:
			// Errors land in Stats().LastErr via Evaluate's defer; the
			// loop only stops when the error is the context's own.
			if _, err := c.Evaluate(ctx); err != nil && ctx.Err() != nil {
				return
			}
		}
	}
}
