package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"edb/internal/obsv"
)

// spanTotal sums the completed spans of one name.
type spanTotal struct {
	ms     float64 // summed duration
	events int64   // summed "events" attribute, where spans carry one
}

// spanTotals sums a tracer's completed spans by name.
func spanTotals(t *obsv.Tracer) map[string]spanTotal {
	out := make(map[string]spanTotal)
	for _, r := range t.Records() {
		if r.Kind != obsv.KindSpan {
			continue
		}
		st := out[r.Name]
		st.ms += float64(r.Dur) / 1e6
		for _, kv := range r.Attrs {
			if kv.Key == "events" {
				if v, err := strconv.ParseInt(kv.Val, 10, 64); err == nil {
					st.events += v
				}
			}
		}
		out[r.Name] = st
	}
	return out
}

// timed runs fn inside a span named name on t (t may be nil) and
// returns fn's wall time in milliseconds.
func timed(t *obsv.Tracer, name string, fn func()) float64 {
	sp := t.StartSpan(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeChrome exports a traced run's spans as Chrome trace_event JSON
// through the obsv exporter.
func writeChrome(cfg *runConfig, workload string, t *obsv.Tracer) error {
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, cfg.seed))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// memDelta measures heap allocation and completed GC cycles across a
// stretch of work.
type memDelta struct{ allocMB, gcs float64 }

func memMark() (uint64, uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}

func memSince(alloc0 uint64, gc0 uint32) memDelta {
	a, g := memMark()
	return memDelta{allocMB: float64(a-alloc0) / (1 << 20), gcs: float64(g - gc0)}
}

// collect runs a full garbage collection and returns its wall time.
// Timed operations start from a collected heap, and loop throughputs
// leave these collections out.
func collect() time.Duration {
	start := time.Now()
	runtime.GC()
	return time.Since(start)
}

// setupClock times a workload's set-up. setup_s is the median of its
// repetitions: the first timed from the process's start, each later one
// from a collected heap.
type setupClock struct {
	fn    func(rep int) error
	times []float64 // seconds
}

// setUp runs a workload's set-up reps times back to back and returns
// the clock, which the workload may repeat later in the run.
func setUp(cfg *runConfig, reps int, fn func(rep int) error) (*setupClock, error) {
	c := &setupClock{fn: fn}
	for i := 0; i < reps; i++ {
		start := cfg.start
		if i > 0 {
			collect()
			start = time.Now()
		}
		if err := fn(i); err != nil {
			return nil, err
		}
		c.times = append(c.times, time.Since(start).Seconds())
	}
	return c, nil
}

// again repeats the set-up and returns its wall time with the
// collection before it, for the loop it interrupts to leave out. A set-up
// is short, so back-to-back repetitions all catch the host in one state;
// repetitions spread over the run give a median over the run instead.
func (c *setupClock) again() (time.Duration, error) {
	t := time.Now()
	collect()
	start := time.Now()
	err := c.fn(len(c.times))
	c.times = append(c.times, time.Since(start).Seconds())
	return time.Since(t), err
}

// median is setup_s in seconds.
func (c *setupClock) median() float64 { return median(c.times) }
