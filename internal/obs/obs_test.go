package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs_total", "requests", Labels{"ep": "a"})
	c2 := r.Counter("reqs_total", "requests", Labels{"ep": "a"})
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c3 := r.Counter("reqs_total", "requests", Labels{"ep": "b"})
	if c1 == c3 {
		t.Fatal("distinct labels returned the same counter")
	}
	c1.Inc()
	c1.Add(2)
	if got := c2.Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("thing", "", nil)
}

func TestRegistryCollectorReplacement(t *testing.T) {
	r := NewRegistry()
	r.Collect("queue", func(emit Emit) { emit("depth", "", nil, KindGauge, 1) })
	r.Collect("queue", func(emit Emit) { emit("depth", "", nil, KindGauge, 2) })
	v := NewView(r.Gather())
	if got := v.Value("depth"); got != 2 {
		t.Fatalf("after re-registration Value = %v, want the newest callback's 2", got)
	}
	if got := v.Series("depth"); got != 1 {
		t.Fatalf("Series = %d, want 1 (replacement, not duplication)", got)
	}
}

func TestNopRegistryRecordsNothing(t *testing.T) {
	r := Nop()
	if !r.Disabled() {
		t.Fatal("Nop registry not Disabled")
	}
	c := r.Counter("x", "", nil)
	c.Inc() // must be usable, just unobserved
	g := r.Gauge("y", "", nil)
	g.Set(5)
	r.Histogram("z", "", nil).Observe(10)
	r.Collect("f", func(emit Emit) { emit("f", "", nil, KindCounter, 9) })
	if got := len(r.Gather()); got != 0 {
		t.Fatalf("Nop Gather returned %d samples, want 0", got)
	}
	if NewStageClock(r) != nil {
		t.Fatal("NewStageClock on Nop registry should be nil")
	}
	// nil clock is safe to use.
	var clk *StageClock
	clk.Observe(StageIngest, 1, 2)
}

func TestViewSumAcrossLabels(t *testing.T) {
	r := NewRegistry()
	for i, n := range []uint64{3, 5, 7} {
		r.Counter("shard_total", "", Labels{"shard": fmt.Sprint(i)}).Add(n)
	}
	v := NewView(r.Gather())
	if got := v.Sum("shard_total"); got != 15 {
		t.Fatalf("Sum = %v, want 15", got)
	}
	if got := v.Series("shard_total"); got != 3 {
		t.Fatalf("Series = %d, want 3", got)
	}
	if got := v.Sum("absent"); got != 0 {
		t.Fatalf("Sum(absent) = %v, want 0", got)
	}
}

func TestStageClockSharedAcrossConstructions(t *testing.T) {
	r := NewRegistry()
	a := NewStageClock(r)
	b := NewStageClock(r)
	a.Observe(StageFlush, 100, 300)
	if got := b.Hist(StageFlush).Count(); got != 1 {
		t.Fatalf("second clock sees %d observations, want 1 (shared series)", got)
	}
	if got := b.Hist(StageFlush).Snapshot().Sum; got != 200 {
		t.Fatalf("Sum = %d, want 200", got)
	}
	// Zero start stamp (pre-instrumentation batch) is skipped.
	a.Observe(StageFlush, 0, 500)
	if got := b.Hist(StageFlush).Count(); got != 1 {
		t.Fatalf("zero-start stamp was recorded; count = %d, want 1", got)
	}
}

func TestStampMonotone(t *testing.T) {
	a := Stamp()
	b := Stamp()
	if b < a {
		t.Fatalf("Stamp went backwards: %d then %d", a, b)
	}
}

// parsePromText is a minimal Prometheus text-format parser: it validates
// line shapes and returns sample name → value. Histogram series appear
// under their _bucket/_sum/_count names.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if len(strings.Fields(line)) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		var v float64
		if _, err := fmt.Sscanf(valStr, "%g", &v); err != nil {
			t.Fatalf("unparseable value %q in line %q: %v", valStr, line, err)
		}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced label braces: %q", line)
			}
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("lppm_reqs_total", "total requests", Labels{"ep": "stream"}).Add(7)
	r.Gauge("lppm_inflight", "in-flight requests", nil).Set(3)
	h := r.Histogram("lppm_lat_ns", "latency", Labels{"stage": "write"})
	h.Observe(100)
	h.Observe(5000)
	h.Observe(int64(1) << 50) // overflow

	var b bytes.Buffer
	if err := WritePrometheus(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	samples := parsePromText(t, body)

	if got := samples[`lppm_reqs_total{ep="stream"}`]; got != 7 {
		t.Errorf("counter sample = %v, want 7", got)
	}
	if got := samples["lppm_inflight"]; got != 3 {
		t.Errorf("gauge sample = %v, want 3", got)
	}
	if got := samples[`lppm_lat_ns_count{stage="write"}`]; got != 3 {
		t.Errorf("hist count = %v, want 3", got)
	}
	inf := samples[`lppm_lat_ns_bucket{le="+Inf",stage="write"}`]
	if inf != 3 {
		t.Errorf("+Inf bucket = %v, want 3 (cumulative total)", inf)
	}
	// Cumulative buckets must be non-decreasing in le.
	var prev float64
	for i := 0; i < NumBuckets-1; i++ {
		key := fmt.Sprintf(`lppm_lat_ns_bucket{le="%d",stage="write"}`, BucketUpper(i))
		cur, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket series %s", key)
		}
		if cur < prev {
			t.Fatalf("bucket series not cumulative at le=%d: %v < %v", BucketUpper(i), cur, prev)
		}
		prev = cur
	}
	// HELP/TYPE emitted once per metric name even with multiple series.
	r.Counter("lppm_reqs_total", "total requests", Labels{"ep": "stats"}).Inc()
	b.Reset()
	if err := WritePrometheus(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "# TYPE lppm_reqs_total "); got != 1 {
		t.Errorf("TYPE line appears %d times, want 1", got)
	}
}

func TestWriteJSONSquashesNaN(t *testing.T) {
	r := NewRegistry()
	r.Collect("drift", func(emit Emit) { emit("lppm_drift", "", nil, KindGauge, math.NaN()) })
	var b bytes.Buffer
	if err := WriteJSON(&b, r.Gather()); err != nil {
		t.Fatalf("WriteJSON with NaN gauge: %v", err)
	}
	var out []map[string]any
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d metrics, want 1", len(out))
	}
	if v, ok := out[0]["value"]; ok && v != 0.0 {
		t.Fatalf("NaN gauge serialized as %v, want squashed to 0", v)
	}
}

func TestAdminMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("lppm_x_total", "x", nil).Inc()
	mux := AdminMux(r)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/metrics"); rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	} else {
		parsePromText(t, rec.Body.String())
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("/metrics content-type = %q", ct)
		}
	}
	if rec := get("/metrics.json"); rec.Code != 200 {
		t.Fatalf("/metrics.json status = %d", rec.Code)
	} else {
		var out []jsonMetric
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("/metrics.json not valid JSON: %v", err)
		}
	}
	if rec := get("/debug/pprof/"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status = %d", rec.Code)
	}
	// POST to /metrics is rejected.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics status = %d, want 405", rec.Code)
	}
}
