// Package obsv is the pipeline observability substrate: a lightweight,
// allocation-conscious span tracer with a ring-buffered collector
// (this file), exporters for a human text timeline and Chrome
// trace_event JSON loadable in Perfetto (export.go), and a
// counter/gauge/histogram metrics registry with a
// Prometheus text dump and a snapshot API (metrics.go).
//
// Design contract — the disabled path is (almost) free. Every hook is
// driven off a pointer the instrumented code already holds:
//
//   - a nil *Tracer yields no-op spans: StartSpan on a nil receiver
//     returns the zero Span, and every Span method nil-checks and
//     returns. No allocation, no time read, no atomic — one
//     predictable branch.
//   - a nil *Metrics makes Add/Inc/Set/Observe single nil-check
//     returns.
//
// The experiment pipeline threads these pointers through its phases
// (internal/exp, internal/sim, internal/debug); with observation off —
// every production run that doesn't ask for it — the pipeline performs
// exactly the same allocation work as before the instrumentation
// existed, a property CI gates with `make gate-obsv` (the obsv suite of
// the bench-gate harness in the module root's gate_test.go).
//
// Observation never feeds back into the observed computation: spans
// and metrics are recorded off to the side, so experiment results are
// bit-identical with observation on or off (asserted by
// internal/exp's observer determinism test).
package obsv

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a collected record.
type Kind uint8

// Record kinds.
const (
	// KindSpan is a completed interval: Start plus a non-negative Dur.
	KindSpan Kind = iota
	// KindEvent is an instant: Dur is zero.
	KindEvent
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindEvent:
		return "event"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// KV is one string attribute on a span or event.
type KV struct{ Key, Val string }

// Record is one completed span or instant event as stored by the
// collector.
type Record struct {
	Name string
	Kind Kind
	// Start is nanoseconds since the tracer's epoch, read from Go's
	// monotonic clock (never the wall clock, so spans are immune to
	// clock steps).
	Start int64
	// Dur is the span's duration in nanoseconds (0 for events).
	Dur int64
	// Seq is the collector's total order of record completion; it
	// breaks ties between records sharing a Start timestamp.
	Seq uint64
	// Attrs are the attributes attached while the span was open, in
	// attachment order.
	Attrs []KV
}

// DefaultCapacity is the collector ring size NewTracer uses for
// capacity <= 0: large enough for a full five-benchmark experiment's
// phase spans many times over, small enough to bound memory if a
// long-lived host traces forever (old records are overwritten, and
// Dropped counts them).
const DefaultCapacity = 1 << 16

// Tracer collects spans and events into a fixed-capacity ring buffer.
// All methods are safe for concurrent use, and all methods are no-ops
// on a nil receiver — the disabled path.
type Tracer struct {
	epoch time.Time
	// now overrides the clock (tests); nil means monotonic-since-epoch.
	now func() int64

	// open counts started-but-unended spans: the well-formedness probe
	// ("every StartSpan ended") asserted by tests after a run.
	open atomic.Int64

	mu      sync.Mutex
	ring    []Record // fixed capacity, wraps at cap
	head    int      // slot the next record goes to
	n       int      // valid records (<= cap(ring))
	seq     uint64
	dropped uint64
}

// NewTracer returns a tracer whose collector holds up to capacity
// records (capacity <= 0 selects DefaultCapacity). Once full, new
// records overwrite the oldest and Dropped counts the overwritten.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{epoch: time.Now(), ring: make([]Record, 0, capacity)}
}

// NewTracerWithClock is NewTracer with an explicit clock returning
// nanoseconds-since-epoch. It exists for deterministic exporter tests
// (golden timelines need fixed timestamps); production callers use
// NewTracer's monotonic clock.
//
//edbvet:allow unused -- test seam: the exporter goldens need a fixed clock
func NewTracerWithClock(capacity int, now func() int64) *Tracer {
	t := NewTracer(capacity)
	t.now = now
	return t
}

func (t *Tracer) clock() int64 {
	if t.now != nil {
		return t.now()
	}
	// time.Since reads the monotonic reading stamped into epoch.
	return int64(time.Since(t.epoch))
}

// Span is an open interval returned by StartSpan. The zero Span (and
// any span from a nil tracer) is valid and inert: attribute setters
// and End are no-ops.
//
// Spans are values: keep them on the stack and call End exactly once,
// typically
//
//	sp := tr.StartSpan("compile")
//	defer sp.End()
//
// A Span must not be shared across goroutines (each goroutine opens
// its own spans; the collector itself is concurrency-safe).
type Span struct {
	t     *Tracer
	name  string
	start int64
	attrs []KV
}

// StartSpan opens a span. On a nil tracer it returns the inert zero
// Span without reading the clock or allocating.
func (t *Tracer) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	t.open.Add(1)
	return Span{t: t, name: name, start: t.clock()}
}

// Attr attaches a string attribute. No-op on an inert span.
func (s *Span) Attr(key, val string) {
	if s.t == nil {
		return
	}
	s.attrs = append(s.attrs, KV{Key: key, Val: val})
}

// Int attaches an integer attribute. No-op on an inert span.
func (s *Span) Int(key string, v int64) {
	if s.t == nil {
		return
	}
	s.attrs = append(s.attrs, KV{Key: key, Val: strconv.FormatInt(v, 10)})
}

// Float attaches a float attribute. No-op on an inert span.
func (s *Span) Float(key string, v float64) {
	if s.t == nil {
		return
	}
	s.attrs = append(s.attrs, KV{Key: key, Val: strconv.FormatFloat(v, 'g', -1, 64)})
}

// End closes the span and hands it to the collector. Safe to call on
// an inert span; a second End on the same span is a no-op (End
// disarms the span).
func (s *Span) End() {
	t := s.t
	if t == nil {
		return
	}
	s.t = nil // disarm: double-End must not double-record
	end := t.clock()
	dur := end - s.start
	if dur < 0 {
		dur = 0 // a clock hook stepping backwards must not yield negative spans
	}
	t.open.Add(-1)
	t.record(Record{Name: s.name, Kind: KindSpan, Start: s.start, Dur: dur, Attrs: s.attrs})
}

// Event records an instant event with optional attributes. On a nil
// tracer it returns immediately.
func (t *Tracer) Event(name string, attrs ...KV) {
	if t == nil {
		return
	}
	var kvs []KV
	if len(attrs) > 0 {
		kvs = append(kvs, attrs...)
	}
	t.record(Record{Name: name, Kind: KindEvent, Start: t.clock(), Attrs: kvs})
}

func (t *Tracer) record(r Record) {
	t.mu.Lock()
	r.Seq = t.seq
	t.seq++
	if t.n < cap(t.ring) {
		t.ring = append(t.ring, r)
		t.n++
	} else {
		// Full: overwrite the oldest slot.
		t.ring[t.head] = r
		t.head = (t.head + 1) % cap(t.ring)
		t.dropped++
	}
	t.mu.Unlock()
}

// Records returns a copy of the collected records in completion order
// (oldest first). Attribute slices are shared with the collector;
// callers must not mutate them.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.head+i)%cap(t.ring)])
	}
	return out
}

// Len reports the number of records currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped reports how many records the full ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Open reports the number of started-but-unended spans: 0 after a
// well-formed run.
func (t *Tracer) Open() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// Reset drops every collected record (capacity and epoch are kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.head, t.n = 0, 0
	t.dropped = 0
	t.mu.Unlock()
}
