package sim

import (
	"strings"
	"testing"

	"edb/internal/obsv"
	"edb/internal/sessions"
)

// TestObservedReplayIsBitIdentical pins the Options.Obs contract:
// observation never feeds back. A replay under a live tracer must be
// bit-identical to the unobserved replay, for both engines, and the
// expected span structure must appear — the prepass span (only when the
// engine computes the prepass itself) and the engine span with its
// events_per_sec and table-size attributes.
func TestObservedReplayIsBitIdentical(t *testing.T) {
	tr := checkedTrace(t, 71, 1500)
	set := sessions.Discover(tr)
	quiet, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential, engine-computed prepass.
	obs := obsv.NewTracer(256)
	seq, err := RunWithOptions(tr, set, Options{Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if seq.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed sequential diverged: %+v != %+v",
				i, seq.PerSession[i], quiet.PerSession[i])
		}
	}
	names := spanNames(obs)
	for _, want := range []string{"replay-prepass", "replay-sequential"} {
		if names[want] == 0 {
			t.Errorf("sequential replay recorded no %q span (got %v)", want, names)
		}
	}
	if !spanHasAttr(obs, "replay-sequential", "events_per_sec") {
		t.Error("replay-sequential span lacks events_per_sec attribute")
	}

	// Shared precomputed prepass: no prepass span, one engine span.
	pp, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs = obsv.NewTracer(256)
	pre, err := RunWithOptions(tr, set, Options{Obs: obs, Prepass: pp})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if pre.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed prepassed replay diverged: %+v != %+v",
				i, pre.PerSession[i], quiet.PerSession[i])
		}
	}
	names = spanNames(obs)
	if names["replay-prepass"] != 0 {
		t.Error("replay with a supplied prepass still recorded a replay-prepass span")
	}
	if names["replay-sequential"] != 1 {
		t.Errorf("want 1 replay-sequential span (got %v)", names)
	}
	// The replay meets every event, so it builds a slot list for every
	// placement of the prepass, in both page tables.
	for _, key := range []string{"placements_4k", "placements_8k"} {
		got := spanInts(t, obs, "replay-sequential", key)
		if len(got) != 1 || got[0] != int64(len(pp.placements)) {
			t.Errorf("replay-sequential %s = %v, want the prepass's %d placements", key, got, len(pp.placements))
		}
	}
}

// TestNilObsIsSupported re-pins, at the sim call sites, the obsv
// contract that a nil tracer is inert: Options.Obs == nil must follow
// the exact same code path as the explicit nil-receiver no-ops, with no
// panic anywhere in either engine.
func TestNilObsIsSupported(t *testing.T) {
	tr := checkedTrace(t, 72, 400)
	set := sessions.Discover(tr)
	var nilObs *obsv.Tracer
	if _, err := RunWithOptions(tr, set, Options{Obs: nilObs}); err != nil {
		t.Fatal(err)
	}
}

func spanNames(tr *obsv.Tracer) map[string]int {
	out := map[string]int{}
	for _, r := range tr.Records() {
		if r.Kind == obsv.KindSpan {
			out[r.Name]++
		}
	}
	return out
}

func spanHasAttr(tr *obsv.Tracer, span, key string) bool {
	for _, r := range tr.Records() {
		if r.Kind != obsv.KindSpan || r.Name != span {
			continue
		}
		for _, kv := range r.Attrs {
			if strings.HasPrefix(kv.Key, key) {
				return true
			}
		}
	}
	return false
}
