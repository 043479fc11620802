package obsv

import (
	"encoding/json"
	"strings"
	"testing"
)

// fixedTracer builds a deterministic record set on a fake clock:
// an outer "benchmark" span, two sequential phase spans, one span
// overlapping the second phase (a concurrent worker), and an instant
// event.
func fixedTracer() *Tracer {
	now := int64(0)
	tr := NewTracerWithClock(64, func() int64 { return now })

	outer := tr.StartSpan("benchmark")
	outer.Attr("program", "gcc")

	now = 1_000_000 // 1ms
	compile := tr.StartSpan("compile")
	now = 5_000_000
	compile.End()

	replay := tr.StartSpan("replay")
	replay.Int("events", 1200)
	now = 6_000_000
	other := tr.StartSpan("replay-shard")
	now = 9_000_000
	other.End()
	now = 10_000_000
	replay.End()

	tr.Event("cache-miss", KV{Key: "program", Val: "gcc"})

	now = 12_000_000
	outer.End()
	return tr
}

// goldenTimeline is the expected WriteText output for fixedTracer —
// the golden test for the text timeline exporter.
const goldenTimeline = `TIMELINE 5 records, 0 dropped
       START          DUR  NAME
     0.000ms     12.000ms  benchmark program=gcc
     1.000ms      4.000ms  compile
     5.000ms      5.000ms  replay events=1200
     6.000ms      3.000ms  replay-shard
    10.000ms            -  cache-miss program=gcc
`

func TestTextTimelineGolden(t *testing.T) {
	var b strings.Builder
	if err := fixedTracer().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenTimeline {
		t.Errorf("timeline mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenTimeline)
	}
}

// TestChromeTraceRoundTrips: the Perfetto export is valid trace_event
// JSON — it unmarshals back, spans carry microsecond ts/dur, overlap
// lands on distinct lanes, and attrs survive as args.
func TestChromeTraceRoundTrips(t *testing.T) {
	var b strings.Builder
	if err := fixedTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			PID   int               `json:"pid"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not valid trace_event JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 5 {
		t.Fatalf("bad document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	byName := map[string]int{}
	lanes := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
		lanes[ev.Name] = ev.TID
		switch ev.Phase {
		case "X":
			if ev.Dur < 0 {
				t.Errorf("%s: negative dur %v", ev.Name, ev.Dur)
			}
		case "i":
			if ev.Name != "cache-miss" {
				t.Errorf("unexpected instant %q", ev.Name)
			}
		default:
			t.Errorf("%s: unknown phase %q", ev.Name, ev.Phase)
		}
	}
	// Timestamps are microseconds: benchmark starts at 0, compile at
	// 1000us.
	if ts := doc.TraceEvents[byName["compile"]].TS; ts != 1000 {
		t.Errorf("compile ts = %v us, want 1000", ts)
	}
	if d := doc.TraceEvents[byName["benchmark"]].Dur; d != 12000 {
		t.Errorf("benchmark dur = %v us, want 12000", d)
	}
	// Overlapping spans must render on distinct lanes; so must a span
	// nested inside an open parent.
	if lanes["benchmark"] == lanes["compile"] {
		t.Error("nested span shares its parent's lane")
	}
	if lanes["replay"] == lanes["replay-shard"] {
		t.Error("overlapping spans share a lane")
	}
	// Sequential spans reuse the freed lane.
	if lanes["compile"] != lanes["replay"] {
		t.Errorf("sequential spans on different lanes: %d vs %d", lanes["compile"], lanes["replay"])
	}
	if args := doc.TraceEvents[byName["benchmark"]].Args; args["program"] != "gcc" {
		t.Errorf("benchmark args = %v, want program=gcc", args)
	}
}
