// Package tracing is a stdlib-only span tracer for the serving plane.
//
// Spans are identified the W3C Trace Context way — a 128-bit trace ID
// shared by every span in one request tree and a 64-bit span ID per
// span — so a trace started by a remote client survives across the
// HTTP boundary via the `traceparent` header (see traceparent.go) and
// keeps working unchanged when the multi-node tier lands.
//
// The design constraints mirror internal/obs:
//
//   - Zero cost when disabled: a nil *Tracer (and the nil *Span every
//     constructor returns through it) makes every method a no-op, so
//     call sites need no guards.
//   - No new hot-path clock reads: the serving stages are timed by one
//     Probe (probe.go), whose sampled pair of obs.Stamp() readings per
//     stage feeds both the stage histogram and the stage span. Only
//     explicitly opted-in work (a client-traced window, control-plane
//     spans) pays its own reads.
//   - Deterministic sampling: the head-sampling decision is pure
//     arithmetic on the trace ID (no math/rand), so a given trace is
//     either fully recorded or fully absent and the record output is
//     bit-identical either way.
//
// Completed spans land in a bounded lock-free ring (ring.go) exported
// on the admin plane as JSON and Chrome trace_event (export.go); the
// same ring backs the flight recorder (flight.go).
package tracing

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TraceID is a 128-bit trace identifier shared by all spans of a trace.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, unique within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// FlagSampled is the W3C trace-flags bit meaning "record this trace".
const FlagSampled byte = 0x01

// SpanContext is the propagated identity of a span: enough to parent a
// child span or serialize a traceparent header, nothing more.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
	Flags byte
}

// Valid reports whether both IDs are non-zero (the W3C validity rule).
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Sampled reports whether the trace is being recorded. Child spans of
// an unsampled context are not recorded.
func (sc SpanContext) Sampled() bool { return sc.Valid() && sc.Flags&FlagSampled != 0 }

// idCounter feeds the splitmix64 ID generator. It is seeded once from
// the wall clock so IDs differ across processes; within a process the
// atomic increment guarantees uniqueness. The generator is shared by
// every Tracer and by NewRootContext.
var idCounter atomic.Uint64

func init() {
	idCounter.Store(uint64(time.Now().UnixNano()))
}

// splitmix64 is the finalizer of the splitmix64 PRNG: a bijective
// mixer, so distinct counter values can never collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newTraceID() TraceID {
	base := idCounter.Add(2)
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], splitmix64(base-1))
	binary.BigEndian.PutUint64(id[8:], splitmix64(base))
	if id.IsZero() { // astronomically unlikely; keep Valid() honest
		id[15] = 1
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], splitmix64(idCounter.Add(1)))
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// NewRootContext mints a fresh sampled root context without a Tracer —
// the client half of propagation: callers (cmd/lppm-load, tests, any
// remote client) put it in a context.Context and the HTTP client
// serializes it into a traceparent header.
func NewRootContext() SpanContext {
	return SpanContext{Trace: newTraceID(), Span: newSpanID(), Flags: FlagSampled}
}

// Config configures a Tracer. The zero value is usable.
type Config struct {
	// RingSize is the completed-span ring capacity, rounded up to a
	// power of two; 0 means 4096.
	RingSize int
	// SampleFrac is the head-sampling fraction for Root spans, clamped
	// to [0,1]; 0 means 1 (record everything). The decision is
	// deterministic in the trace ID: a trace is sampled iff the low 64
	// bits of its ID, read as a uint64, fall below frac·2⁶⁴.
	SampleFrac float64
	// FlightLog is the log-event ring capacity behind the flight
	// recorder; 0 means 256.
	FlightLog int
	// FlightSnapshots bounds retained flight snapshots; 0 means 8.
	FlightSnapshots int
}

// Tracer records spans into a bounded ring. A nil *Tracer is a valid
// disabled tracer: every method no-ops and every constructor returns a
// nil *Span whose methods also no-op.
type Tracer struct {
	ring      *spanRing
	flight    *FlightRecorder
	sampleAll bool
	threshold uint64 // sample iff lo64(trace) < threshold
}

// New builds a Tracer. See Config for defaults.
func New(cfg Config) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = 4096
	}
	frac := cfg.SampleFrac
	if frac == 0 {
		frac = 1
	}
	t := &Tracer{ring: newSpanRing(size)}
	switch {
	case frac >= 1:
		t.sampleAll = true
	case frac <= 0:
		t.threshold = 0
	default:
		t.threshold = uint64(math.Round(frac * float64(1<<63) * 2))
	}
	t.flight = newFlightRecorder(t.ring, cfg.FlightLog, cfg.FlightSnapshots)
	return t
}

// Flight returns the tracer's flight recorder; nil on a nil tracer, so
// g.tracer.Flight().Snapshot(...) is safe everywhere.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// sampled is the deterministic head-sampling decision: pure arithmetic
// on the trace ID, so it is reproducible and detrand-clean.
func (t *Tracer) sampled(id TraceID) bool {
	if t.sampleAll {
		return true
	}
	return binary.BigEndian.Uint64(id[8:]) < t.threshold
}

// Attr is one span attribute. Attributes are an ordered list, not a
// map, so exports are deterministic without sorting.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// SpanData is a completed span as stored in the ring and exported.
type SpanData struct {
	Trace   TraceID
	Span    SpanID
	Parent  SpanID // zero for a root span
	Name    string
	StartNS int64 // obs.Stamp() timebase (monotonic ns since process start)
	EndNS   int64
	Err     string
	Attrs   []Attr
	Seq     uint64 // ring insertion order, assigned at End
}

// Span is an in-flight span. A nil *Span (the disabled case) accepts
// every method as a no-op, so call sites never need guards.
type Span struct {
	t *Tracer
	d SpanData
}

// RootAt starts a new head-sampled trace whose root span began at
// startNS (an obs.Stamp() value). Returns nil — record nothing — when
// the tracer is nil or the freshly minted trace ID falls outside the
// sample fraction.
func (t *Tracer) RootAt(name string, startNS int64) *Span {
	if t == nil {
		return nil
	}
	id := newTraceID()
	if !t.sampled(id) {
		return nil
	}
	return &Span{t: t, d: SpanData{
		Trace:   id,
		Span:    newSpanID(),
		Name:    name,
		StartNS: startNS,
	}}
}

// ForceRootAt starts a new trace that bypasses head sampling — for
// call sites that are already sampled upstream (the probe's 1-in-8
// tick mask) or are rare control-plane events worth keeping.
func (t *Tracer) ForceRootAt(name string, startNS int64) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, d: SpanData{
		Trace:   newTraceID(),
		Span:    newSpanID(),
		Name:    name,
		StartNS: startNS,
	}}
}

// ChildAt starts a child of parent beginning at startNS. Returns nil
// when the tracer is nil or the parent is unsampled — so an unsampled
// trace costs nothing below its root.
func (t *Tracer) ChildAt(parent SpanContext, name string, startNS int64) *Span {
	if t == nil || !parent.Sampled() {
		return nil
	}
	return &Span{t: t, d: SpanData{
		Trace:   parent.Trace,
		Span:    newSpanID(),
		Parent:  parent.Span,
		Name:    name,
		StartNS: startNS,
	}}
}

// Root is RootAt with the current obs.Stamp() — for control-plane
// spans that may pay their own clock read.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.RootAt(name, obs.Stamp())
}

// ForceRoot is ForceRootAt with the current obs.Stamp().
func (t *Tracer) ForceRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.ForceRootAt(name, obs.Stamp())
}

// Child is ChildAt with the current obs.Stamp().
func (t *Tracer) Child(parent SpanContext, name string) *Span {
	if t == nil || !parent.Sampled() {
		return nil
	}
	return t.ChildAt(parent, name, obs.Stamp())
}

// Context returns the span's propagation context (zero on nil).
// Recorded spans always carry the sampled flag: a span only exists
// because its trace passed head sampling.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.d.Trace, Span: s.d.Span, Flags: FlagSampled}
}

// Attr appends a string attribute and returns s for chaining.
func (s *Span) Attr(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.d.Attrs = append(s.d.Attrs, Attr{Key: key, Val: val})
	return s
}

// AttrInt appends an integer attribute.
func (s *Span) AttrInt(key string, val int64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatInt(val, 10))
}

// AttrUint appends an unsigned integer attribute.
func (s *Span) AttrUint(key string, val uint64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatUint(val, 10))
}

// AttrFloat appends a float attribute in shortest round-trip form.
func (s *Span) AttrFloat(key string, val float64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatFloat(val, 'g', -1, 64))
}

// EndAt completes the span at endNS (an obs.Stamp() value) and
// publishes it to the ring. A span must be ended exactly once;
// further method calls on it are undefined.
func (s *Span) EndAt(endNS int64) {
	if s == nil {
		return
	}
	s.d.EndNS = endNS
	s.t.ring.put(&s.d)
}

// End completes the span at the current obs.Stamp().
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(obs.Stamp())
}

// EndErrAt completes the span at endNS, recording err (nil err is the
// same as EndAt).
func (s *Span) EndErrAt(endNS int64, err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.d.Err = err.Error()
	}
	s.EndAt(endNS)
}

// EndErr completes the span at the current obs.Stamp(), recording err.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.EndErrAt(obs.Stamp(), err)
}

// Spans returns the ring contents oldest-first (nil tracer → nil).
func (t *Tracer) Spans() []*SpanData {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}
