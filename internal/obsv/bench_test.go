package obsv

import (
	"io"
	"testing"
)

// BenchmarkSpanDisabled is the disabled-path contract: a span on a nil
// tracer must cost a nil check — 0 allocs/op, no clock read. The obsv
// bench gate (`make gate-obsv`) asserts the alloc count.
func BenchmarkSpanDisabled(b *testing.B) {
	var t *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := t.StartSpan("phase")
		sp.Attr("k", "v")
		sp.Int("n", int64(i))
		sp.End()
	}
}

// BenchmarkEventDisabled: instant events on a nil tracer.
func BenchmarkEventDisabled(b *testing.B) {
	var t *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Event("cache-hit", KV{Key: "program", Val: "gcc"})
	}
}

// BenchmarkMetricsDisabled: convenience calls on a nil registry.
func BenchmarkMetricsDisabled(b *testing.B) {
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Inc("edb_cache_total")
		m.Observe("edb_phase_seconds", 0.1)
	}
}

// BenchmarkSpanEnabled: the hot enabled path — open, one attribute,
// close, into the ring.
func BenchmarkSpanEnabled(b *testing.B) {
	t := NewTracer(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := t.StartSpan("phase")
		sp.Attr("program", "gcc")
		sp.End()
	}
}

// BenchmarkCounterEnabled: one pre-registered counter increment.
func BenchmarkCounterEnabled(b *testing.B) {
	m := NewMetrics()
	c := m.Counter("edb_cache_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramEnabled: one pre-registered histogram observation.
func BenchmarkHistogramEnabled(b *testing.B) {
	m := NewMetrics()
	h := m.Histogram("edb_phase_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.25)
	}
}

// BenchmarkChromeExport: exporting a full ring (cost of -trace-out at
// the end of a run; not on any hot path).
func BenchmarkChromeExport(b *testing.B) {
	t := NewTracer(1 << 12)
	for i := 0; i < 1<<12; i++ {
		sp := t.StartSpan("phase")
		sp.Attr("program", "gcc")
		sp.End()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
