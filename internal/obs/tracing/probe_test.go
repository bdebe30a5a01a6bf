package tracing

import (
	"testing"

	"repro/internal/obs"
)

// spanDur returns the duration of the one recorded span named name.
func spanDur(t *testing.T, tr *Tracer, name string) int64 {
	t.Helper()
	var found []*SpanData
	for _, sp := range tr.Spans() {
		if sp.Name == name {
			found = append(found, sp)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d %q spans recorded, want 1", len(found), name)
	}
	return found[0].EndNS - found[0].StartNS
}

// TestProbeFeedsHistogramAndSpanFromOneReading is the no-drift property of
// the probe: a measured stage's histogram observation and its span are
// the same pair of readings, so they agree to the nanosecond.
func TestProbeFeedsHistogramAndSpanFromOneReading(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{})
	p := NewProbe(reg, tr, true)
	clock := obs.NewStageClock(reg)
	journal := reg.Histogram("lppm_journal_append_ns", "", nil)

	var tick uint64
	w := p.Window(&tick, SpanContext{}, SpanContext{}) // first tick: sampled
	if w.Span == nil {
		t.Fatal("sampled window carries no span")
	}
	w.Journal().End()
	w.End()
	if got, want := clock.Hist(obs.StageFlush).Snapshot().Sum, spanDur(t, tr, "window"); got != want {
		t.Errorf("flush histogram sum %d, window span %d ns", got, want)
	}
	if got, want := journal.Snapshot().Sum, spanDur(t, tr, "journal.append"); got != want {
		t.Errorf("journal histogram sum %d, journal.append span %d ns", got, want)
	}

	remote := NewRootContext()
	pickup := p.Start(obs.StageDispatch, remote).End()
	p.StartAt(obs.StageWrite, remote, pickup).End()
	for _, st := range []obs.Stage{obs.StageDispatch, obs.StageWrite} {
		if got, want := clock.Hist(st).Snapshot().Sum, spanDur(t, tr, st.String()); got != want {
			t.Errorf("%v histogram sum %d, span %d ns", st, got, want)
		}
	}
}

// TestProbeOffAndUnsampledReadNoClock pins the off switch and the
// sampling: no probe without metrics or tracer, and an unsampled,
// untraced flush opens nothing.
func TestProbeOffAndUnsampledReadNoClock(t *testing.T) {
	if p := NewProbe(obs.Nop(), nil, true); p != nil {
		t.Fatal("probe built with metrics and tracing both off")
	}
	var nilProbe *Probe
	var tick uint64
	if w := nilProbe.Window(&tick, NewRootContext(), SpanContext{}); w != (Timer{}) || tick != 0 {
		t.Fatalf("nil probe opened %+v, ticked %d", w, tick)
	}
	if got := nilProbe.Batch(1, 2, 3); got != (SpanContext{}) {
		t.Fatalf("nil probe batch context %v", got)
	}

	p := NewProbe(obs.NewRegistry(), nil, true)
	p.Window(&tick, SpanContext{}, SpanContext{}) // tick 1: sampled
	for i := 2; i <= sampleEvery; i++ {
		if w := p.Window(&tick, SpanContext{}, SpanContext{}); w.start != 0 || w.Journal() != (Timer{}) {
			t.Fatalf("tick %d: unsampled window opened %+v", i, w)
		}
	}
	if p.Sample(&tick) == 0 {
		t.Fatalf("tick %d not sampled", tick)
	}
}

// TestProbeWindowParentPriority: a bound client trace wins even on an
// unsampled flush, then the sampled batch, then a fresh root.
func TestProbeWindowParentPriority(t *testing.T) {
	p := NewProbe(obs.Nop(), New(Config{}), false)
	remote, batch := NewRootContext(), NewRootContext()
	var tick uint64
	if w := p.Window(&tick, remote, batch); w.Span.d.Parent != remote.Span {
		t.Error("sampled flush did not parent under the client trace")
	}
	if w := p.Window(&tick, remote, batch); w.Span == nil || w.Span.d.Parent != remote.Span {
		t.Error("unsampled flush of a client-traced user was not recorded under it")
	}
	if w := p.Window(&tick, SpanContext{}, batch); w.Span != nil {
		t.Error("unsampled, untraced flush recorded a span")
	}
	tick = 0
	if w := p.Window(&tick, SpanContext{}, batch); w.Span.d.Parent != batch.Span {
		t.Error("sampled flush did not parent under the sampled batch")
	}
	tick = 0
	if w := p.Window(&tick, SpanContext{}, SpanContext{}); w.Span == nil || !w.Span.d.Parent.IsZero() {
		t.Error("sampled flush outside a batch is not a root")
	}
}
