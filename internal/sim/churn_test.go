package sim

import (
	"bytes"
	"testing"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// Mid-stream monitor churn: a live debugging session growing and
// shrinking its watch set appears in the trace as extra remove/install
// pairs for program-lifetime objects (tracer.Churn). These tests prove
// the replay side of the re-patching story — every engine agrees
// bit-identically on a churned trace, and churn perturbs exactly the
// install/remove counters, never a hit or a miss.

const churnSimSrc = `
int g; int acc; int tab[6];
int f(int n) {
	g = g + n;
	tab[n & 3] = g;
	return g;
}
int main() {
	int i;
	for (i = 0; i < 60; i = i + 1) { acc = acc + f(i); }
	return 0;
}`

func churnedSimTrace(t *testing.T, schedule []tracer.ChurnPoint) *trace.Trace {
	t.Helper()
	img, err := minic.CompileToImage(churnSimSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	tc := tracer.New(m, "churn")
	if err := tc.Churn(schedule); err != nil {
		t.Fatal(err)
	}
	tr, err := tc.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("churned trace invalid: %v", err)
	}
	return tr
}

var churnSimSchedule = []tracer.ChurnPoint{
	{Sym: "g", AfterWrites: 11},
	{Sym: "tab", AfterWrites: 40},
	{Sym: "g", AfterWrites: 90},
	{Sym: "acc", AfterWrites: 130},
}

// TestChurnReplayEnginesAgree: in-memory and streamed (v3-decoded,
// with block skip) replay of a churned trace produce identical
// per-session counting vectors.
func TestChurnReplayEnginesAgree(t *testing.T) {
	tr := churnedSimTrace(t, churnSimSchedule)
	set := sessions.Discover(tr)
	base, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{Version: 3, BlockEvents: 32}); err != nil {
		t.Fatal(err)
	}
	st, err := streamed(trace.BytesSource(buf.Bytes()), set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.PerSession {
		if st.PerSession[i] != base.PerSession[i] {
			t.Errorf("session %s: streamed %+v != sequential %+v",
				set.Sessions[i].Label(), st.PerSession[i], base.PerSession[i])
		}
	}
}

// TestChurnReplayMetamorphic: against the unchurned trace of the same
// program, churn changes a session's Installs and Removes by exactly
// the number of churn points for its member objects — hits, misses and
// total writes are untouched, because each remove is immediately
// followed by the re-install with no write in between.
func TestChurnReplayMetamorphic(t *testing.T) {
	base := churnedSimTrace(t, nil)
	churned := churnedSimTrace(t, churnSimSchedule)
	set := sessions.Discover(base)
	cset := sessions.Discover(churned)
	if len(set.Sessions) != len(cset.Sessions) {
		t.Fatalf("churn changed session discovery: %d vs %d", len(set.Sessions), len(cset.Sessions))
	}

	// Churn pairs per object, counted from the schedule via the trace's
	// object table.
	churnsPerObj := map[objects.ID]uint64{}
	for _, p := range churnSimSchedule {
		for id := objects.ID(1); id <= objects.ID(churned.Objects.Len()); id++ {
			o := churned.Objects.MustGet(id)
			if o.Kind == objects.KindGlobal && o.Name == p.Sym {
				churnsPerObj[id]++
			}
		}
	}

	b, err := sequential(base, set)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sequential(churned, cset)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalWrites != b.TotalWrites {
		t.Fatalf("churn changed TotalWrites: %d vs %d", c.TotalWrites, b.TotalWrites)
	}
	for i, sess := range set.Sessions {
		var extra uint64
		for _, id := range sess.Objects {
			extra += churnsPerObj[id]
		}
		got, want := c.PerSession[i], b.PerSession[i]
		if got.Hits != want.Hits || got.Misses != want.Misses {
			t.Errorf("session %s: churn changed hits/misses: %+v vs %+v", sess.Label(), got, want)
		}
		if got.Installs != want.Installs+extra || got.Removes != want.Removes+extra {
			t.Errorf("session %s: installs/removes %d/%d, want %d/%d (+%d churns)",
				sess.Label(), got.Installs, got.Removes, want.Installs, want.Removes, extra)
		}
	}
}
