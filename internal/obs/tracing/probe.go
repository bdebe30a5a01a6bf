package tracing

import "repro/internal/obs"

// sampleEvery is the probe's deterministic sampling period: one in every
// sampleEvery batches (and, independently, window flushes) is timed; the
// rest skip every clock read. A 37 ns time.Now per stamp times two stamps
// per window flush was the dominant instrumentation cost — sampling keeps
// the measured overhead well under the 2% budget while the histograms,
// being statistical objects over exchangeable batches, lose only tail
// resolution. Must be a power of two (the gate is a mask); the first tick
// always samples so short tests and low-traffic deployments still populate
// every stage series.
const sampleEvery = 8

// Probe is the serving plane's one timing source. A measured stage takes
// one pair of obs.Stamp readings, and that pair feeds both the stage's
// histogram (obs.StageClock) and, when a tracer is attached, the stage's
// span — so the stage metrics are the spans' aggregate and cannot drift
// from them. The gateway builds one probe and the HTTP server times its
// stages through the same one. A nil *Probe (metrics off and no tracer)
// takes no readings at all.
type Probe struct {
	clock   *obs.StageClock // nil when metrics are off
	journal *obs.Histogram  // nil without a journal or with metrics off
	tracer  *Tracer         // nil when tracing is off
}

// NewProbe builds the probe over reg's stage histograms and tr; a
// journaled gateway's probe also times the journal enqueue into
// lppm_journal_append_ns. It returns nil when reg collects nothing and tr
// is nil.
func NewProbe(reg *obs.Registry, tr *Tracer, journaled bool) *Probe {
	p := &Probe{clock: obs.NewStageClock(reg), tracer: tr}
	if p.clock == nil && tr == nil {
		return nil
	}
	if p.clock != nil && journaled {
		p.journal = reg.Histogram("lppm_journal_append_ns",
			"sampled hot-path journal enqueue latency", nil)
	}
	return p
}

// Sample advances a 1-in-sampleEvery tick and returns a start reading when
// the tick is sampled; otherwise, and on a nil probe, it returns 0 and
// reads no clock.
func (p *Probe) Sample(tick *uint64) int64 {
	if p == nil {
		return 0
	}
	*tick++
	if *tick&(sampleEvery-1) != 1 {
		return 0
	}
	return obs.Stamp()
}

// Lap ends stage st begun at the sampled reading start: one reading, fed
// to the stage histogram and returned so the next stage begins at it. An
// unsampled stage (start 0) reads no clock and returns 0.
func (p *Probe) Lap(st obs.Stage, start int64) int64 {
	if p == nil || start == 0 {
		return 0
	}
	now := obs.Stamp()
	p.clock.Observe(st, start, now)
	return now
}

// Batch ends a batch's queue stage at dequeue and, when tracing, records
// the batch's span tree from the readings its stages already took: a
// "batch" root over "ingest" (staged → enqueued) and "queue" (enqueued →
// dequeued). It returns the root's context, under which the windows the
// batch flushes parent; zero when the batch is unsampled or untraced. The
// root is forced, not head-sampled: the tick is the sampling decision.
func (p *Probe) Batch(stagedNS, enqueuedNS int64, records int) SpanContext {
	dequeued := p.Lap(obs.StageQueue, enqueuedNS)
	if dequeued == 0 || p.tracer == nil {
		return SpanContext{}
	}
	root := p.tracer.ForceRootAt("batch", stagedNS)
	sc := root.Context()
	p.tracer.ChildAt(sc, "ingest", stagedNS).EndAt(enqueuedNS)
	p.tracer.ChildAt(sc, "queue", enqueuedNS).EndAt(dequeued)
	root.AttrInt("records", int64(records)).EndAt(dequeued)
	return sc
}

// Timer is one stage measurement in flight. The zero Timer measures
// nothing, and its End reads no clock.
type Timer struct {
	// Span is the stage's span, for attributes and error ends; nil when
	// the stage is untraced.
	Span  *Span
	p     *Probe
	hist  *obs.Histogram // fed at End; nil when unsampled or metrics are off
	start int64
}

// End closes the measurement with one reading, which feeds the histogram
// and ends the span, and returns it; 0 for an unmeasured stage.
func (t Timer) End() int64 {
	if t.start == 0 {
		return 0
	}
	end := obs.Stamp()
	if t.hist != nil {
		t.hist.Observe(end - t.start)
	}
	t.Span.EndAt(end)
	return end
}

// Window opens the flush stage of one user's window, sampled 1 in
// sampleEvery on tick. The "window" span's parent follows a fixed
// priority: a client trace bound to the user (remote) wins and, being an
// explicit opt-in, is recorded on every flush — paying its own reading
// when the flush is unsampled; otherwise a sampled flush parents under the
// sampled batch that triggered it, or stands alone as a root.
func (p *Probe) Window(tick *uint64, remote, batch SpanContext) Timer {
	if p == nil {
		return Timer{}
	}
	start := p.Sample(tick)
	t := Timer{p: p, start: start}
	if start != 0 {
		t.hist = p.clock.Hist(obs.StageFlush)
	}
	switch {
	case p.tracer == nil:
	case remote.Sampled():
		if t.start == 0 {
			t.start = obs.Stamp()
		}
		t.Span = p.tracer.ChildAt(remote, "window", t.start)
	case start != 0 && batch.Sampled():
		t.Span = p.tracer.ChildAt(batch, "window", start)
	case start != 0:
		t.Span = p.tracer.ForceRootAt("window", start)
	}
	return t
}

// Journal opens the window's journal enqueue: timed into the journal
// histogram when the window is sampled, and as a "journal.append" child
// span when it is traced.
func (t Timer) Journal() Timer {
	j := Timer{p: t.p}
	if t.hist != nil {
		j.hist = t.p.journal
	}
	if j.hist == nil && t.Span == nil {
		return Timer{}
	}
	j.start = obs.Stamp()
	j.Span = t.p.tracer.ChildAt(t.Span.Context(), "journal.append", j.start)
	return j
}

// Start opens server stage st of a window whose trace context is sc. The
// server's stages are not sampled: every window is timed while metrics
// are on, and a traced window also when they are off.
func (p *Probe) Start(st obs.Stage, sc SpanContext) Timer {
	if p == nil || (p.clock == nil && !(p.tracer != nil && sc.Sampled())) {
		return Timer{}
	}
	return p.StartAt(st, sc, obs.Stamp())
}

// StartAt is Start from a reading already taken — the end of the previous
// stage; a zero reading opens nothing.
func (p *Probe) StartAt(st obs.Stage, sc SpanContext, start int64) Timer {
	if p == nil || start == 0 {
		return Timer{}
	}
	return Timer{
		Span:  p.tracer.ChildAt(sc, st.String(), start),
		p:     p,
		hist:  p.clock.Hist(st),
		start: start,
	}
}
