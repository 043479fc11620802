package exp

import (
	"context"
	"sync"
	"testing"

	"edb/internal/model"
	"edb/internal/progs"
	"edb/internal/sessions"
)

// The full experiment takes a few seconds; run it once and share the
// results across tests.
var (
	resultsOnce sync.Once
	results     map[string]*ProgramResult
	resultsErr  error
)

func allResults(t *testing.T) map[string]*ProgramResult {
	t.Helper()
	resultsOnce.Do(func() {
		rs, err := Run(Config{})
		if err != nil {
			resultsErr = err
			return
		}
		results = make(map[string]*ProgramResult)
		for _, r := range rs {
			results[r.Program] = r
		}
	})
	if resultsErr != nil {
		t.Fatal(resultsErr)
	}
	return results
}

func TestRunAllPrograms(t *testing.T) {
	rs := allResults(t)
	if len(rs) != 5 {
		t.Fatalf("got %d programs", len(rs))
	}
	for name, r := range rs {
		if len(r.Kept) == 0 {
			t.Errorf("%s: no sessions survived", name)
		}
		if r.BaseSeconds <= 0 || r.TotalWrites == 0 {
			t.Errorf("%s: missing base data", name)
		}
	}
}

// TestPaperShapeTable4 asserts the qualitative results of Table 4: the
// orderings and rough factors the reproduction must preserve.
func TestPaperShapeTable4(t *testing.T) {
	for name, r := range allResults(t) {
		nh := r.Summaries[model.NH]
		vm4 := r.Summaries[model.VM4K]
		vm8 := r.Summaries[model.VM8K]
		tp := r.Summaries[model.TP]
		cp := r.Summaries[model.CP]

		// CodePatch: low overhead (single digits) and extremely low
		// variance — its max is close to its trimmed mean.
		if cp.TMean < 1 || cp.TMean > 8 {
			t.Errorf("%s: CP T-Mean = %.2f, want single-digit", name, cp.TMean)
		}
		if cp.Max > cp.TMean*4 {
			t.Errorf("%s: CP max %.2f vs T-Mean %.2f — variance too high", name, cp.Max, cp.TMean)
		}
		// TrapPatch: 50-160x, essentially constant across sessions.
		if tp.TMean < 40 || tp.TMean > 170 {
			t.Errorf("%s: TP T-Mean = %.2f, want 50-160x", name, tp.TMean)
		}
		if tp.Max-tp.Min > tp.TMean*0.1 {
			t.Errorf("%s: TP spread too wide: %.2f..%.2f", name, tp.Min, tp.Max)
		}
		// TP/CP per-write cost ratio ≈ (102+2.75)/2.75 ≈ 38.
		ratio := tp.TMean / cp.TMean
		if ratio < 30 || ratio > 45 {
			t.Errorf("%s: TP/CP = %.1f, want ≈38", name, ratio)
		}
		// NativeHardware: tiny typical cost but a heavy right tail.
		if nh.TMean > 5 {
			t.Errorf("%s: NH T-Mean = %.2f, want near-zero", name, nh.TMean)
		}
		if nh.Max < 10 {
			t.Errorf("%s: NH max = %.2f, want a heavy tail (>10x)", name, nh.Max)
		}
		// VirtualMemory: worst extremes of all approaches, and 8K never
		// beats 4K.
		if vm4.Max < tp.Max {
			t.Errorf("%s: VM max %.2f should exceed TP max %.2f", name, vm4.Max, tp.Max)
		}
		if vm8.TMean < vm4.TMean-1e-9 {
			t.Errorf("%s: VM-8K T-Mean %.2f below VM-4K %.2f", name, vm8.TMean, vm4.TMean)
		}
		// CP beats NH on the most demanding sessions (§9).
		if nh.Max < cp.Max {
			t.Errorf("%s: NH max %.2f should exceed CP max %.2f on hot sessions", name, nh.Max, cp.Max)
		}
	}
}

// TestQCDWorstForVM: the paper's Table 4 shows QCD as VirtualMemory's
// catastrophic case (T-Mean 159 at full scale, the highest by far).
func TestQCDWorstForVM(t *testing.T) {
	rs := allResults(t)
	qcd := rs["qcd"].Summaries[model.VM4K].TMean
	for name, r := range rs {
		if name == "qcd" {
			continue
		}
		if v := r.Summaries[model.VM4K].TMean; v >= qcd {
			t.Errorf("VM-4K T-Mean: %s (%.2f) >= qcd (%.2f); qcd should be worst", name, v, qcd)
		}
	}
	if qcd < 30 {
		t.Errorf("qcd VM T-Mean = %.2f, want unacceptably slow (>30x)", qcd)
	}
}

// TestBreakdowns asserts §8's where-the-time-went findings.
func TestBreakdowns(t *testing.T) {
	for name, r := range allResults(t) {
		if f := r.BreakdownMean[model.NH]["NHFaultHandler"]; f < 0.999 {
			t.Errorf("%s: NH fault fraction = %.3f, want 1.0", name, f)
		}
		if f := r.BreakdownMean[model.TP]["TPFaultHandler"]; f < 0.93 {
			t.Errorf("%s: TP fault fraction = %.3f, want ≈0.97", name, f)
		}
		if f := r.BreakdownMean[model.CP]["SoftwareLookup"]; f < 0.90 {
			t.Errorf("%s: CP lookup fraction = %.3f, want ≈0.98-0.99", name, f)
		}
		if f := r.BreakdownMean[model.VM4K]["VMFaultHandler"]; f < 0.55 {
			t.Errorf("%s: VM fault fraction = %.3f, want dominant", name, f)
		}
	}
}

// TestExpansion asserts §8's space estimate: a modest expansion from two
// extra instructions per write (the paper: 12-15%).
func TestExpansion(t *testing.T) {
	for name, r := range allResults(t) {
		if r.Expansion < 0.08 || r.Expansion > 0.20 {
			t.Errorf("%s: expansion = %.1f%%, want ≈12-15%%", name, 100*r.Expansion)
		}
		if r.StoreFraction <= 0 || r.StoreFraction > 0.15 {
			t.Errorf("%s: store fraction = %.3f", name, r.StoreFraction)
		}
	}
}

// TestSessionPopulations asserts the Table 1 signature.
func TestSessionPopulations(t *testing.T) {
	rs := allResults(t)
	for _, name := range []string{"ctex", "qcd"} {
		sc := rs[name].SessionCounts
		if sc[sessions.OneHeap] != 0 || sc[sessions.AllHeapInFunc] != 0 {
			t.Errorf("%s has heap sessions %d/%d; the paper's has none",
				name, sc[sessions.OneHeap], sc[sessions.AllHeapInFunc])
		}
	}
	if bps := rs["bps"].SessionCounts[sessions.OneHeap]; bps < 1000 {
		t.Errorf("bps OneHeap sessions = %d, want thousands", bps)
	}
	for name, r := range rs {
		if r.SessionCounts[sessions.OneLocalAuto] == 0 {
			t.Errorf("%s: no local sessions", name)
		}
	}
}

// TestVMExpensiveSessionsMonitorRootLocals: §8 observes that VM's
// expensive sessions monitor "local variables, often for functions
// toward the root of the call graph".
func TestVMExpensiveSessionsMonitorRootLocals(t *testing.T) {
	r := allResults(t)["gcc"]
	// Find the worst VM-4K session.
	worst := -1
	for i := range r.Kept {
		if worst < 0 || r.Kept[i].Relative[model.VM4K] > r.Kept[worst].Relative[model.VM4K] {
			worst = i
		}
	}
	s := r.Kept[worst].Session
	if s.Type != sessions.OneLocalAuto && s.Type != sessions.AllLocalInFunc {
		t.Errorf("gcc's worst VM session is %s, expected a local-variable session", s.Label())
	}
	if s.Func != "main" && s.Func != "_start" && s.Func != "run_pass" {
		t.Logf("note: worst VM session is %s (root-ward functions expected)", s.Label())
	}
}

// TestRelativeInvariantsPerSession sanity-checks every kept session.
func TestRelativeInvariantsPerSession(t *testing.T) {
	for name, r := range allResults(t) {
		for i := range r.Kept {
			k := &r.Kept[i]
			if k.Counting.Hits == 0 {
				t.Fatalf("%s: zero-hit session kept: %s", name, k.Session.Label())
			}
			if k.Counting.Hits+k.Counting.Misses != r.TotalWrites {
				t.Fatalf("%s: hits+misses mismatch in %s", name, k.Session.Label())
			}
			for _, strat := range model.Strategies {
				if k.Relative[strat] < 0 {
					t.Fatalf("%s: negative overhead", name)
				}
			}
			// TP dominates CP for every single session.
			if k.Relative[model.TP] <= k.Relative[model.CP] {
				t.Fatalf("%s: TP <= CP for %s", name, k.Session.Label())
			}
		}
	}
}

func TestAnalyzeRejectsNothing(t *testing.T) {
	// Analyze must work on a minimal trace via runProgram of the
	// smallest benchmark with a different timing profile.
	p, _ := progs.ByName("bps", 1)
	alt := model.Paper
	alt.SoftwareLookup = 1.0
	r, err := runProgram(context.Background(), p, alt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Halving-ish the lookup cost must reduce CP overhead accordingly.
	base, _ := runProgram(context.Background(), p, model.Paper, nil)
	if r.Summaries[model.CP].TMean >= base.Summaries[model.CP].TMean {
		t.Error("cheaper lookup did not reduce CP overhead")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (&Config{}).withDefaults()
	if c.Scale != 1 || len(c.Programs) != 5 || c.Timings != model.Paper {
		t.Errorf("defaults = %+v", c)
	}
}

func TestRunUnknownProgram(t *testing.T) {
	if _, err := Run(Config{Programs: []string{"nope"}}); err == nil {
		t.Error("unknown program should fail")
	}
}

// TestScaleInvariance validates the scaling argument of DESIGN.md §5:
// relative overheads are invariant under uniform run-length scaling,
// because overhead terms and base time grow together.
func TestScaleInvariance(t *testing.T) {
	p1, _ := progs.ByName("qcd", 1)
	p2, _ := progs.ByName("qcd", 2)
	r1, err := runProgram(context.Background(), p1, model.Paper, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runProgram(context.Background(), p2, model.Paper, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalWrites < r1.TotalWrites*3/2 {
		t.Fatalf("scale 2 did not lengthen the run: %d vs %d writes", r2.TotalWrites, r1.TotalWrites)
	}
	for _, s := range []model.Strategy{model.TP, model.CP} {
		a, b := r1.Summaries[s].TMean, r2.Summaries[s].TMean
		if rel := (a - b) / a; rel > 0.1 || rel < -0.1 {
			t.Errorf("%v T-Mean changed with scale: %.2f vs %.2f", s, a, b)
		}
	}
}
