package sim

import (
	"fmt"
	"testing"

	"edb/internal/progs"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// Property-based invariant suite: structural truths of the counting
// variables that must hold for *every* session on *every* valid trace,
// independent of the oracle comparison (oracle_test.go proves the
// numbers right; this suite proves the engine can never produce a
// structurally impossible vector, and pins the internal balance
// invariants of the flat replay core that no black-box test can see).
//
// Invariants, per session σ:
//
//	Hits_σ + Misses_σ == TotalWrites        (every write is classified)
//	Installs_σ ≥ Removes_σ                  (removes match installs)
//	Protects_σ[psi] ≥ Unprotects_σ[psi]     (1→0 needs a prior 0→1)
//	ActivePageMiss_σ[psi] ≤ Misses_σ        (a miss counts once per size)
//
// and on balanced traces (every install eventually removed — randomTrace
// tears everything down) the inequalities tighten to equalities, the
// page tables end with zero live pages, and the interval-credit
// accounting ends with zero uncredited exposure.

// checkInvariants asserts the per-session structural invariants on one
// engine's output. balanced tightens the ≥ invariants to equality.
func checkInvariants(t *testing.T, label string, out *Output, balanced bool) {
	t.Helper()
	for i := range out.PerSession {
		c := &out.PerSession[i]
		sess := out.Set.Sessions[i].Label()
		if c.Hits+c.Misses != out.TotalWrites {
			t.Errorf("%s %s: Hits %d + Misses %d != TotalWrites %d",
				label, sess, c.Hits, c.Misses, out.TotalWrites)
		}
		if c.Installs < c.Removes {
			t.Errorf("%s %s: Installs %d < Removes %d", label, sess, c.Installs, c.Removes)
		}
		if balanced && c.Installs != c.Removes {
			t.Errorf("%s %s: balanced trace but Installs %d != Removes %d",
				label, sess, c.Installs, c.Removes)
		}
		for psi := range c.VM {
			vm := &c.VM[psi]
			if vm.Protects < vm.Unprotects {
				t.Errorf("%s %s psi=%d: Protects %d < Unprotects %d",
					label, sess, psi, vm.Protects, vm.Unprotects)
			}
			if balanced && vm.Protects != vm.Unprotects {
				t.Errorf("%s %s psi=%d: balanced trace but Protects %d != Unprotects %d",
					label, sess, psi, vm.Protects, vm.Unprotects)
			}
			if vm.ActivePageMiss > c.Misses {
				t.Errorf("%s %s psi=%d: ActivePageMiss %d > Misses %d",
					label, sess, psi, vm.ActivePageMiss, c.Misses)
			}
		}
	}
}

// engineOutputs replays tr/set on every engine configuration the suite
// covers — Sequential, and Sharded at every tested shard count both
// with a self-computed and with a shared precomputed prepass — and
// returns the labelled outputs.
func engineOutputs(t *testing.T, tr *trace.Trace, set *sessions.Set) map[string]*Output {
	t.Helper()
	pp, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]*Output{}
	seq, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	outs["sequential"] = seq
	for _, k := range shardCounts() {
		sh, err := sharded(tr, set, k)
		if err != nil {
			t.Fatal(err)
		}
		outs[fmt.Sprintf("sharded-%d", k)] = sh
		pre, err := RunWithOptions(tr, set, Options{Shards: k, Prepass: pp})
		if err != nil {
			t.Fatal(err)
		}
		outs[fmt.Sprintf("sharded-%d-prepassed", k)] = pre
	}
	return outs
}

// TestPropertyRandomTraces checks the invariant suite over randomized
// balanced traces of varying sizes, on every engine configuration.
func TestPropertyRandomTraces(t *testing.T) {
	cases := []struct {
		seed   int64
		events int
	}{
		{11, 120}, {12, 400}, {13, 900}, {14, 1500},
		{15, 2500}, {16, 700}, {17, 1800}, {18, 300},
	}
	for _, tc := range cases {
		tr := checkedTrace(t, tc.seed, tc.events)
		set := sessions.Discover(tr)
		for label, out := range engineOutputs(t, tr, set) {
			checkInvariants(t, fmt.Sprintf("seed=%d %s", tc.seed, label), out, true)
		}
	}
}

// TestPropertyWorkloadTraces checks the invariants on the real
// compiled-and-traced benchmark workloads (not just the synthetic
// generator). Workload traces are not install/remove balanced —
// programs exit with globals still installed — so only the inequality
// forms apply.
func TestPropertyWorkloadTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("workload tracing is slow; skipped in -short")
	}
	for _, name := range progs.Names() {
		tr := workloadTrace(t, name)
		set := sessions.Discover(tr)
		for label, out := range engineOutputs(t, tr, set) {
			checkInvariants(t, name+" "+label, out, false)
		}
	}
}

// TestPropertyPageTabBalance is the white-box half: after replaying a
// balanced trace, the page tables themselves must be balanced — no page
// retains an active entry (everything protected was unprotected) and
// the interval-credit accounting has no uncredited write exposure. It
// also exercises a strict sub-range replay (the sharded worker's
// MembershipRange path) directly.
func TestPropertyPageTabBalance(t *testing.T) {
	for seed := int64(21); seed <= 26; seed++ {
		tr := checkedTrace(t, seed, 1200)
		set := sessions.Discover(tr)
		pp, err := Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		n := int32(len(set.Sessions))
		ranges := [][2]int32{{0, n}}
		if n >= 3 {
			ranges = append(ranges, [2]int32{n / 3, 2 * n / 3}) // strict sub-range
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			per := make([]Counting, hi-lo)
			var pages [2]pageTab
			replayRange(set, pp, lo, hi, per, &pages)
			for psi := range pages {
				if live := pages[psi].livePages(); live != 0 {
					t.Errorf("seed %d range [%d,%d) psi=%d: %d live pages after balanced trace",
						seed, lo, hi, psi, live)
				}
				if pend := pages[psi].pendingCredit(); pend != 0 {
					t.Errorf("seed %d range [%d,%d) psi=%d: %d uncredited writes after balanced trace",
						seed, lo, hi, psi, pend)
				}
			}
		}
	}
}

// TestPropertyShardUnion pins the partition property the sharded engine
// rests on: the per-shard sub-range replays are a disjoint cover of the
// sequential replay — concatenating the shard outputs reproduces the
// full PerSession vector exactly, for every tested shard count.
func TestPropertyShardUnion(t *testing.T) {
	tr := checkedTrace(t, 31, 1500)
	set := sessions.Discover(tr)
	pp, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(len(set.Sessions))
	for _, k := range shardCounts() {
		got := make([]Counting, n)
		for s := 0; s < k; s++ {
			lo := int32(s) * n / int32(k)
			hi := int32(s+1) * n / int32(k)
			if lo == hi {
				continue
			}
			var pages [2]pageTab
			replayRange(set, pp, lo, hi, got[lo:hi], &pages)
		}
		finishCounters(got, pp.TotalWrites)
		for i := range got {
			if got[i] != seq.PerSession[i] {
				t.Errorf("K=%d session %s: shard-union %+v != sequential %+v",
					k, set.Sessions[i].Label(), got[i], seq.PerSession[i])
			}
		}
	}
}
