package sim

import (
	"math/rand"
	"testing"

	"edb/internal/sessions"
	"edb/internal/trace"
)

// Metamorphic tests: transformations of the *input* with a known,
// provable effect on the *output*. Unlike the oracle suite they need no
// second implementation to compare against — the relation itself is the
// specification — so they catch bug classes the oracle shares with the
// engine (both read the same membership index, for instance).

// TestMetamorphicSessionPermutation: counting variables belong to a
// session, not to its position in the discovery order. Replaying under
// a randomly permuted session list must produce the same vector for
// every session, relocated through the permutation — for both engines.
// This pins the CSR membership build (NewSet) and the dense counter
// indexing against any ordering assumption.
func TestMetamorphicSessionPermutation(t *testing.T) {
	for seed := int64(41); seed <= 44; seed++ {
		tr := checkedTrace(t, seed, 1200)
		set := sessions.Discover(tr)
		base, err := sequential(tr, set)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(set.Sessions)) // permuted[new] = sessions[perm[new]]
		permuted := make([]sessions.Session, len(perm))
		for newIdx, oldIdx := range perm {
			permuted[newIdx] = set.Sessions[oldIdx]
		}
		pset := sessions.NewSet(permuted, tr.Objects.Len())

		pseq, err := sequential(tr, pset)
		if err != nil {
			t.Fatal(err)
		}
		for newIdx, oldIdx := range perm {
			want := base.PerSession[oldIdx]
			if got := pseq.PerSession[newIdx]; got != want {
				t.Errorf("seed %d session %s: permuted sequential %+v != base %+v",
					seed, set.Sessions[oldIdx].Label(), got, want)
			}
		}
	}
}

// concatTrace returns tr's event stream repeated twice over the same
// object table — a valid trace because tr is balanced (every monitor
// removed by the end), so the second repetition re-installs from a
// clean machine state.
func concatTrace(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	ev := make([]trace.Event, 0, 2*len(tr.Events))
	ev = append(ev, tr.Events...)
	ev = append(ev, tr.Events...)
	dbl := &trace.Trace{
		Program:    tr.Program,
		Objects:    tr.Objects,
		BaseCycles: tr.BaseCycles,
		Events:     ev,
	}
	if err := dbl.Validate(); err != nil {
		t.Fatalf("concatenated trace invalid: %v", err)
	}
	if err := dbl.ValidateExclusive(); err != nil {
		t.Fatalf("concatenated trace not exclusive: %v", err)
	}
	return dbl
}

// addCounting returns a + b, component-wise.
func addCounting(a, b Counting) Counting {
	a.Installs += b.Installs
	a.Removes += b.Removes
	a.Hits += b.Hits
	a.Misses += b.Misses
	for psi := range a.VM {
		a.VM[psi].Protects += b.VM[psi].Protects
		a.VM[psi].Unprotects += b.VM[psi].Unprotects
		a.VM[psi].ActivePageMiss += b.VM[psi].ActivePageMiss
	}
	return a
}

// TestMetamorphicConcatDoubles: a balanced trace leaves the machine
// monitor-free, so replaying it twice back-to-back is two independent
// replays — every counting variable of the concatenation must be
// exactly double the single replay's.
func TestMetamorphicConcatDoubles(t *testing.T) {
	for seed := int64(51); seed <= 54; seed++ {
		tr := checkedTrace(t, seed, 900)
		set := sessions.Discover(tr)
		one, err := sequential(tr, set)
		if err != nil {
			t.Fatal(err)
		}
		two, err := sequential(concatTrace(t, tr), set)
		if err != nil {
			t.Fatal(err)
		}
		if two.TotalWrites != 2*one.TotalWrites {
			t.Fatalf("seed %d: TotalWrites %d != 2×%d", seed, two.TotalWrites, one.TotalWrites)
		}
		for i := range one.PerSession {
			want := addCounting(one.PerSession[i], one.PerSession[i])
			if got := two.PerSession[i]; got != want {
				t.Errorf("seed %d session %s: concat %+v != doubled %+v",
					seed, set.Sessions[i].Label(), got, want)
			}
		}
	}
}

// TestMetamorphicSplitSums is the converse: splitting a concatenated
// trace at its balanced cut point (the seam, where no monitors are
// live) and replaying the halves independently must sum — component-
// wise, Misses included, since each half classifies only its own writes
// — to the whole-trace replay. This is the relation the sharded
// *experiment* pipeline (internal/exp) relies on when traces are
// replayed piecewise, and it holds only at cut points where the live
// monitor set is empty; the seam of a balanced self-concatenation is
// such a point by construction.
func TestMetamorphicSplitSums(t *testing.T) {
	for seed := int64(61); seed <= 63; seed++ {
		tr := checkedTrace(t, seed, 1100)
		set := sessions.Discover(tr)
		dbl := concatTrace(t, tr)
		whole, err := sequential(dbl, set)
		if err != nil {
			t.Fatal(err)
		}
		cut := len(tr.Events) // the balanced seam
		halves := []*trace.Trace{
			{Program: tr.Program, Objects: tr.Objects, BaseCycles: tr.BaseCycles, Events: dbl.Events[:cut]},
			{Program: tr.Program, Objects: tr.Objects, BaseCycles: tr.BaseCycles, Events: dbl.Events[cut:]},
		}
		sum := make([]Counting, len(set.Sessions))
		var totalWrites uint64
		for _, h := range halves {
			out, err := sequential(h, set)
			if err != nil {
				t.Fatal(err)
			}
			totalWrites += out.TotalWrites
			for i := range sum {
				sum[i] = addCounting(sum[i], out.PerSession[i])
			}
		}
		if totalWrites != whole.TotalWrites {
			t.Fatalf("seed %d: split TotalWrites %d != whole %d", seed, totalWrites, whole.TotalWrites)
		}
		for i := range sum {
			if sum[i] != whole.PerSession[i] {
				t.Errorf("seed %d session %s: split-sum %+v != whole %+v",
					seed, set.Sessions[i].Label(), sum[i], whole.PerSession[i])
			}
		}
	}
}
