// Exporters for the collected span stream: a human-readable text
// timeline and Chrome trace_event JSON (loadable in chrome://tracing
// and https://ui.perfetto.dev).
//
// Both exporters are deterministic functions of the collected
// records: output order is (Start, Seq), attribute maps are emitted
// with sorted keys, and timestamps come straight from the records —
// so a tracer with a fixed test clock yields byte-identical output,
// which is what the golden timeline test pins.

package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// sortedRecords returns the records ordered by (Start, Seq).
func (t *Tracer) sortedRecords() []Record {
	recs := t.Records()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].Seq < recs[j].Seq
	})
	return recs
}

// WriteText renders the human text timeline: one line per record,
// ordered by start time, with millisecond offsets from the tracer
// epoch, durations, names, and attributes.
func (t *Tracer) WriteText(w io.Writer) error {
	recs := t.sortedRecords()
	if _, err := fmt.Fprintf(w, "TIMELINE %d records, %d dropped\n", len(recs), t.Dropped()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%12s %12s  %s\n", "START", "DUR", "NAME"); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		dur := fmt.Sprintf("%.3fms", float64(r.Dur)/1e6)
		if r.Kind == KindEvent {
			dur = "-"
		}
		if _, err := fmt.Fprintf(w, "%10.3fms %12s  %s%s\n",
			float64(r.Start)/1e6, dur, r.Name, attrSuffix(r.Attrs)); err != nil {
			return err
		}
	}
	return nil
}

func attrSuffix(attrs []KV) string {
	s := ""
	for _, kv := range attrs {
		s += " " + kv.Key + "=" + kv.Val
	}
	return s
}

// chromeEvent is one Chrome trace_event object. Complete spans use
// ph="X" with a microsecond ts/dur; instants use ph="i" scoped to the
// thread.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the trace_event JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the records as Chrome trace_event JSON —
// the JSON object format with a traceEvents array of complete ("X")
// and instant ("i") events — loadable in Perfetto or chrome://tracing.
//
// Records carry no thread identity (spans from concurrent pipeline
// workers interleave), so tracks are reconstructed: spans are laid
// out greedily onto the smallest set of non-overlapping lanes, and
// each lane becomes one tid. Overlapping (concurrent) spans therefore
// render on separate rows, which makes pipeline parallelism directly
// visible in the UI.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs := t.sortedRecords()
	events := make([]chromeEvent, 0, len(recs))
	// laneEnd[i] is the time lane i is busy until.
	var laneEnd []int64
	for i := range recs {
		r := &recs[i]
		ev := chromeEvent{
			Name:  r.Name,
			TS:    float64(r.Start) / 1e3,
			PID:   1,
			TID:   0,
			Args:  attrMap(r.Attrs),
			Phase: "X",
		}
		if r.Kind == KindEvent {
			ev.Phase = "i"
			ev.Scope = "t"
			events = append(events, ev)
			continue
		}
		dur := float64(r.Dur) / 1e3
		ev.Dur = &dur
		lane := -1
		for li, end := range laneEnd {
			if end <= r.Start {
				lane = li
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = r.Start + r.Dur
		ev.TID = lane
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func attrMap(attrs []KV) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, kv := range attrs {
		m[kv.Key] = kv.Val
	}
	return m
}
