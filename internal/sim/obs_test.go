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
// engine computes the prepass itself), the engine span with its
// events_per_sec attribute, and one span per shard worker.
func TestObservedReplayIsBitIdentical(t *testing.T) {
	tr := checkedTrace(t, 71, 1500)
	set := sessions.Discover(tr)
	quiet, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential, engine-computed prepass.
	obs := obsv.NewTracer(256)
	seq, err := RunWithOptions(tr, set, Options{Shards: 1, Obs: obs})
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

	// Sharded, shared precomputed prepass: no prepass span, one span
	// per worker.
	pp, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs = obsv.NewTracer(256)
	const k = 3
	sh, err := RunWithOptions(tr, set, Options{Shards: k, Obs: obs, Prepass: pp})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if sh.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed sharded diverged: %+v != %+v",
				i, sh.PerSession[i], quiet.PerSession[i])
		}
	}
	names = spanNames(obs)
	if names["replay-prepass"] != 0 {
		t.Error("sharded replay with a supplied prepass still recorded a replay-prepass span")
	}
	if names["replay-sharded"] == 0 {
		t.Errorf("no replay-sharded span (got %v)", names)
	}
	if names["replay-shard"] != k {
		t.Errorf("got %d replay-shard worker spans, want %d", names["replay-shard"], k)
	}
	// Every shard replays every event, so it builds a slot list for
	// every placement of the prepass, in both page tables.
	for _, key := range []string{"placements_4k", "placements_8k"} {
		got := spanInts(t, obs, "replay-shard", key)
		if len(got) != k {
			t.Fatalf("replay-shard %s: %v, want one per shard", key, got)
		}
		for _, n := range got {
			if n != int64(len(pp.placements)) {
				t.Errorf("replay-shard %s = %d, want the prepass's %d placements", key, n, len(pp.placements))
			}
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
	for _, shards := range []int{1, 3} {
		if _, err := RunWithOptions(tr, set, Options{Shards: shards, Obs: nilObs}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
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
