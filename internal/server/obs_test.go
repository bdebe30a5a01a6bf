package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/service"
)

// TestStatsMatchesRegistry pins the metric surface of a full serving
// stack — a journaled gateway, a controller, the server and the runtime
// gauges: /metrics exposes exactly the golden set of (name, labels, kind)
// series, and every /v1/stats field equals the /metrics series it
// reports, so the two surfaces cannot drift.
func TestStatsMatchesRegistry(t *testing.T) {
	ctx := context.Background()
	gw, _, err := service.Recover(ctx, baseGatewayConfig(11), service.JournalConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mech := lppm.NewGeoIndistinguishability()
	dep, err := core.NewDeployment(mech, lppm.Params{lppm.EpsilonParam: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := service.NewController(gw, dep, service.ControllerConfig{
		Definition: core.Definition{
			Mechanism: mech,
			Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
			Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
		},
		Objectives: model.Objectives{MaxPrivacy: 1, MinUtility: 0},
		SampleFrac: 1,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.RegisterRuntimeMetrics(gw.Obs())
	srv, err := server.New(server.Config{Gateway: gw, Controller: ctrl, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cl := startServer(t, srv)
	recs := makeRecords(6, 24)
	streamAll(t, cl, recs)
	if _, err := ctrl.Evaluate(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	obs.AdminMux(gw.Obs()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	surface := parseMetricSurface(t, rec.Body.String())

	// The golden surface.
	var want []string
	series := func(kind, name string, labels ...string) {
		want = append(want, name+"{"+strings.Join(labels, ",")+"} "+kind)
	}
	for shard := 0; shard < 3; shard++ {
		l := fmt.Sprintf("shard=%q", fmt.Sprint(shard))
		for _, n := range []string{"ingested", "emitted", "flushes", "dropped", "reconfigs"} {
			series("counter", "lppm_shard_"+n+"_total", l)
		}
		series("gauge", "lppm_shard_users", l)
		series("gauge", "lppm_shard_queue_depth", l)
	}
	series("gauge", "lppm_gateway_generation")
	series("counter", "lppm_gateway_swaps_total")
	for _, n := range []string{"appends", "snapshots", "bytes", "errors"} {
		series("counter", "lppm_journal_"+n+"_total")
	}
	series("gauge", "lppm_journal_segment")
	series("gauge", "lppm_journal_queue_depth")
	series("histogram", "lppm_journal_append_ns")
	for _, st := range []string{"ingest", "queue", "flush", "dispatch", "write"} {
		series("histogram", "lppm_stage_latency_ns", fmt.Sprintf("stage=%q", st))
	}
	for _, n := range []string{"streams", "streams_rejected", "rate_limited", "orphan_windows",
		"dropped_windows", "stall_abandons"} {
		series("counter", "lppm_server_"+n+"_total")
	}
	series("gauge", "lppm_server_active_streams")
	series("gauge", "lppm_server_draining")
	for _, ep := range []string{"stream", "protect", "stats", "deployment", "reconfigure",
		"resume", "replay", "healthz"} {
		e := fmt.Sprintf("endpoint=%q", ep)
		series("gauge", "lppm_http_inflight", e)
		for _, class := range []string{"other", "2xx", "4xx", "5xx"} {
			series("counter", "lppm_http_requests_total", fmt.Sprintf("class=%q", class), e)
		}
	}
	for _, n := range []string{"windows_observed", "records_observed", "evaluations", "swaps",
		"override_skips"} {
		series("counter", "lppm_controller_"+n+"_total")
	}
	for _, n := range []string{"users_tracked", "last_privacy", "last_utility"} {
		series("gauge", "lppm_controller_"+n)
	}
	for _, n := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_heap_sys_bytes",
		"go_heap_objects", "go_gc_cycles_total", "go_gc_pause_total_ns", "go_next_gc_bytes"} {
		series("gauge", n)
	}
	sort.Strings(want)
	got := make([]string, 0, len(surface))
	for k := range surface {
		got = append(got, k)
	}
	sort.Strings(got)
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("/metrics series:\n%s\nwant:\n%s", g, w)
	}

	// Every /v1/stats field against its series: a gateway total is the sum
	// over the shard series, the shard count their number.
	sum := func(name string) float64 {
		var v float64
		for k, x := range surface {
			if strings.HasPrefix(k, name+"{") {
				v += x
			}
		}
		return v
	}
	n := func(name string) float64 {
		var c float64
		for k := range surface {
			if strings.HasPrefix(k, name+"{") {
				c++
			}
		}
		return c
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	if st.Controller == nil {
		t.Fatal("stats carry no controller section")
	}
	for _, c := range []struct {
		field     string
		got, want float64
	}{
		{"server.active_streams", float64(st.Server.ActiveStreams), sum("lppm_server_active_streams")},
		{"server.streams_total", float64(st.Server.StreamsTotal), sum("lppm_server_streams_total")},
		{"server.streams_rejected", float64(st.Server.StreamsRejected), sum("lppm_server_streams_rejected_total")},
		{"server.rate_limited", float64(st.Server.RateLimited), sum("lppm_server_rate_limited_total")},
		{"server.orphan_windows", float64(st.Server.OrphanWindows), sum("lppm_server_orphan_windows_total")},
		{"server.dropped_windows", float64(st.Server.DroppedWindows), sum("lppm_server_dropped_windows_total")},
		{"server.draining", b2f(st.Server.Draining), sum("lppm_server_draining")},
		{"gateway.ingested", float64(st.Gateway.Ingested), sum("lppm_shard_ingested_total")},
		{"gateway.emitted", float64(st.Gateway.Emitted), sum("lppm_shard_emitted_total")},
		{"gateway.flushes", float64(st.Gateway.Flushes), sum("lppm_shard_flushes_total")},
		{"gateway.dropped", float64(st.Gateway.Dropped), sum("lppm_shard_dropped_total")},
		{"gateway.reconfigs", float64(st.Gateway.Reconfigs), sum("lppm_shard_reconfigs_total")},
		{"gateway.swaps", float64(st.Gateway.Swaps), sum("lppm_gateway_swaps_total")},
		{"gateway.generation", float64(st.Gateway.Generation), sum("lppm_gateway_generation")},
		{"gateway.users", float64(st.Gateway.Users), sum("lppm_shard_users")},
		{"gateway.shards", float64(st.Gateway.Shards), n("lppm_shard_ingested_total")},
		{"controller.windows_observed", float64(st.Controller.WindowsObserved), sum("lppm_controller_windows_observed_total")},
		{"controller.records_observed", float64(st.Controller.RecordsObserved), sum("lppm_controller_records_observed_total")},
		{"controller.users_tracked", float64(st.Controller.UsersTracked), sum("lppm_controller_users_tracked")},
		{"controller.evaluations", float64(st.Controller.Evaluations), sum("lppm_controller_evaluations_total")},
		{"controller.swaps", float64(st.Controller.Swaps), sum("lppm_controller_swaps_total")},
		{"controller.last_privacy", st.Controller.LastPrivacy, sum("lppm_controller_last_privacy")},
		{"controller.last_utility", st.Controller.LastUtility, sum("lppm_controller_last_utility")},
	} {
		if c.got != c.want {
			t.Errorf("stats %s = %v, /metrics says %v", c.field, c.got, c.want)
		}
	}
	if st.Gateway.Ingested != uint64(len(recs)) {
		t.Errorf("ingested = %d, want %d", st.Gateway.Ingested, len(recs))
	}
	if st.Server.StreamsTotal != 1 {
		t.Errorf("streams_total = %d, want 1", st.Server.StreamsTotal)
	}
	if st.Gateway.Shards != 3 {
		t.Errorf("shards = %d, want 3", st.Gateway.Shards)
	}
	if st.Controller.WindowsObserved == 0 || st.Controller.Evaluations == 0 {
		t.Errorf("controller observed %d windows in %d evaluations, want both > 0",
			st.Controller.WindowsObserved, st.Controller.Evaluations)
	}
}

// parseMetricSurface reads a Prometheus text page into series → value,
// keyed "name{labels} kind" with the labels as rendered. A histogram's
// _bucket, _sum and _count lines fold into one series (le dropped) whose
// value is its count.
func parseMetricSurface(t *testing.T, page string) map[string]float64 {
	t.Helper()
	kinds := make(map[string]string)
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(typ)
			kinds[f[0]] = f[1]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		kind, part := kinds[name], ""
		if kind == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
					name, kind, part = base, "histogram", suffix
				}
			}
		}
		if kind == "" {
			t.Fatalf("sample %q has no TYPE line", line)
		}
		var keep []string
		for _, l := range strings.Split(labels, ",") {
			if l != "" && !strings.HasPrefix(l, "le=") {
				keep = append(keep, l)
			}
		}
		key := name + "{" + strings.Join(keep, ",") + "} " + kind
		switch {
		case kind != "histogram", part == "_count":
			out[key] = v
		default:
			out[key] += 0
		}
	}
	return out
}

// TestStatsResponseShape is the golden test on the legacy wire contract:
// the exact key paths of /v1/stats must survive the registry-backed
// rewrite, or deployed scrapers break silently.
func TestStatsResponseShape(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(13), nil)
	streamAll(t, env.cl, makeRecords(2, 8))

	resp, err := http.Get(env.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}

	keysOf := func(section string) []string {
		raw, ok := body[section]
		if !ok {
			t.Fatalf("response missing %q section", section)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("section %q not an object: %v", section, err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	golden := map[string]string{
		"server": "active_streams,draining,dropped_windows,orphan_windows," +
			"rate_limited,streams_rejected,streams_total",
		"gateway": "dropped,emitted,flushes,generation,ingested,reconfigs," +
			"shards,swaps,users",
	}
	for section, want := range golden {
		if got := strings.Join(keysOf(section), ","); got != want {
			t.Errorf("%s keys = %s\nwant       %s", section, got, want)
		}
	}
	if _, ok := body["controller"]; ok {
		t.Error("controller section present without a controller configured")
	}
}

// TestStageHistogramsCoverPipeline drives records end to end and checks
// every stage — ingest, queue, flush, dispatch, write — recorded latency.
func TestStageHistogramsCoverPipeline(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(17), nil)
	streamAll(t, env.cl, makeRecords(4, 32))

	clk := obs.NewStageClock(env.gw.Obs())
	for st := obs.StageIngest; st <= obs.StageWrite; st++ {
		h := clk.Hist(st)
		if h.Count() == 0 {
			t.Errorf("stage %v recorded no observations", st)
			continue
		}
		if h.Quantile(0.5) < 0 {
			t.Errorf("stage %v negative p50", st)
		}
	}
}

// TestEndpointRequestMetrics checks the per-endpoint counters: status
// classes split 2xx from 4xx and the in-flight gauge settles back to zero.
func TestEndpointRequestMetrics(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(19), nil)
	ctx := context.Background()
	if err := env.cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := env.cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	// A bad reconfigure body → 4xx on the reconfigure endpoint.
	resp, err := http.Post(env.ts.URL+"/v1/reconfigure", "application/json",
		strings.NewReader(`{"params": {"no-such-param": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 4 {
		t.Fatalf("bad reconfigure answered %d, want 4xx", resp.StatusCode)
	}

	samples := env.gw.Obs().Gather()
	count := func(endpoint, class string) float64 {
		for _, s := range samples {
			if s.Name == "lppm_http_requests_total" &&
				s.Labels["endpoint"] == endpoint && s.Labels["class"] == class {
				return s.Value
			}
		}
		return -1
	}
	if got := count("healthz", "2xx"); got != 1 {
		t.Errorf("healthz 2xx = %v, want 1", got)
	}
	if got := count("stats", "2xx"); got != 1 {
		t.Errorf("stats 2xx = %v, want 1", got)
	}
	if got := count("reconfigure", "4xx"); got != 1 {
		t.Errorf("reconfigure 4xx = %v, want 1", got)
	}
	v := obs.NewView(samples)
	if got := v.Sum("lppm_http_inflight"); got != 0 {
		t.Errorf("in-flight sum = %v after all requests done, want 0", got)
	}
}

// TestClientWithObs checks the client-side instruments: request counters,
// the shared latency histogram type, and the stream record counters.
func TestClientWithObs(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(23), nil)
	reg := obs.NewRegistry()
	cl := client.New(env.ts.URL, client.WithObs(reg))
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(2, 16)
	st, err := cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, r := range recs {
			_ = st.Send(r)
		}
		_ = st.CloseSend()
	}()
	n := 0
	for {
		if _, err := st.Recv(); err != nil {
			break
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("received %d records, want %d", n, len(recs))
	}

	v := obs.NewView(reg.Gather())
	if got := v.Value("lppm_client_stream_sent_total"); got != float64(len(recs)) {
		t.Errorf("sent counter = %v, want %d", got, len(recs))
	}
	if got := v.Value("lppm_client_stream_received_total"); got != float64(len(recs)) {
		t.Errorf("received counter = %v, want %d", got, len(recs))
	}
	var latCount uint64
	for _, s := range reg.Gather() {
		if s.Name == "lppm_client_request_ns" && s.Labels["op"] == "health" {
			latCount = s.Hist.Count
		}
	}
	if latCount != 1 {
		t.Errorf("health latency histogram count = %d, want 1", latCount)
	}
}
