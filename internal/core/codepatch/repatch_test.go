package codepatch_test

import (
	"errors"
	"fmt"
	"testing"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/core/codepatch"
	"edb/internal/core/wms"
	"edb/internal/minic"
	"edb/internal/progs"
)

const repatchSrc = `
int a = 1;
int b = 2;
int tab[8];

int bump(int i, int v) {
	tab[i & 3] = v;
	a = a + v;
	a = a + 1;
	return a;
}

int main() {
	int k;
	for (k = 0; k < 6; k = k + 1) {
		b = bump(k, k + 10);
	}
	print(a);
	print(b);
	return 0;
}
`

// buildEngine builds a live Image over repatchSrc with the given
// options, recording notifications.
func buildEngine(t *testing.T, opt codepatch.PatchOptions) (*codepatch.Image, *[]wms.Notification) {
	t.Helper()
	prog, err := minic.Compile(repatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	var notifs []wms.Notification
	img, err := codepatch.BuildImage(prog, opt, arch.PageSize4K, func(n wms.Notification) {
		notifs = append(notifs, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, &notifs
}

func TestBuildImageDeliversNotifications(t *testing.T) {
	img, notifs := buildEngine(t, codepatch.PatchOptions{Optimize: true})
	r, ok := img.M.Image.Data["a"]
	if !ok {
		t.Fatal("no data symbol a")
	}
	if err := img.InstallMonitor(r.BA, r.EA); err != nil {
		t.Fatal(err)
	}
	if err := img.M.Run(diffFuel); err != nil {
		t.Fatal(err)
	}
	// main's loop runs bump 6 times; each bump writes a twice.
	if got := len(*notifs); got != 12 {
		t.Fatalf("got %d notifications for writes to a, want 12", got)
	}
	if img.Stats.Installs != 1 {
		t.Fatalf("Installs = %d, want 1", img.Stats.Installs)
	}
	if vs := img.Verify(); len(vs) != 0 {
		t.Fatalf("fresh image fails verification: %v", vs[0])
	}
}

func TestBuildImageRejectsDoublePatch(t *testing.T) {
	prog, err := minic.Compile(repatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codepatch.PatchWithOptions(prog, codepatch.PatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := codepatch.BuildImage(prog, codepatch.PatchOptions{}, arch.PageSize4K, nil); err == nil {
		t.Fatal("BuildImage accepted an already-patched program")
	}
}

func TestRewriteStoreErrors(t *testing.T) {
	img, _ := buildEngine(t, codepatch.PatchOptions{Optimize: true})
	if err := img.RewriteStore("no_such_fn", 0, 4); !errors.Is(err, codepatch.ErrNoSuchStore) {
		t.Fatalf("unknown function: got %v, want ErrNoSuchStore", err)
	}
	if err := img.RewriteStore("bump", 99, 4); !errors.Is(err, codepatch.ErrNoSuchStore) {
		t.Fatalf("bad ordinal: got %v, want ErrNoSuchStore", err)
	}
	if err := img.RewriteStore("bump", 2, 1<<20); !errors.Is(err, codepatch.ErrImmOverflow) {
		t.Fatalf("huge delta: got %v, want ErrImmOverflow", err)
	}
	if img.Stats.Rewrites != 0 {
		t.Fatalf("failed rewrites were counted: %d", img.Stats.Rewrites)
	}
}

// TestRewriteStoreDemotes: rewriting a store in bump invalidates the
// optimizer decisions that depend on bump; the working map shrinks, the
// demoted set grows, and the image still proves sound.
func TestRewriteStoreDemotes(t *testing.T) {
	img, _ := buildEngine(t, codepatch.PatchOptions{Optimize: true})
	before := 0
	if img.DepMap() != nil {
		before = len(img.DepMap().Sites)
	}
	if before == 0 {
		t.Fatal("workload produced no optimized sites; the test measures nothing")
	}
	// bump's pair `a = a + v; a = a + 1` gives the interproc planner an
	// elision; rewriting the tab store (ordinal 2, after the two
	// parameter spills) must demote it rather than leave a stale proof.
	if err := img.RewriteStore("bump", 2, 4); err != nil {
		t.Fatal(err)
	}
	after := len(img.DepMap().Sites)
	if after >= before {
		t.Errorf("dependence map did not shrink: %d -> %d sites", before, after)
	}
	if img.Stats.Demoted == 0 {
		t.Error("no sites demoted by a rewrite in the elision's function")
	}
	if len(img.Demoted()) != img.Stats.Demoted {
		t.Errorf("demoted set size %d != Stats.Demoted %d", len(img.Demoted()), img.Stats.Demoted)
	}
	if vs := img.Verify(); len(vs) != 0 {
		t.Fatalf("post-rewrite image fails verification: %v", vs[0])
	}
	// The machine still runs to completion after the live-text edit.
	if err := img.M.Run(diffFuel); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteStoreUnoptimized: without a dependence map there is
// nothing to demote, but the lockstep pair rewrite and re-verification
// still apply.
func TestRewriteStoreUnoptimized(t *testing.T) {
	img, _ := buildEngine(t, codepatch.PatchOptions{})
	if img.DepMap() != nil {
		t.Fatal("unoptimized image should have no dependence map")
	}
	if err := img.RewriteStore("bump", 2, 4); err != nil {
		t.Fatal(err)
	}
	if img.Stats.WordsRewritten != 2 {
		t.Fatalf("WordsRewritten = %d, want 2 (store + pair)", img.Stats.WordsRewritten)
	}
	if vs := img.Verify(); len(vs) != 0 {
		t.Fatalf("post-rewrite image fails verification: %v", vs[0])
	}
	if err := img.M.Run(diffFuel); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRepatchedRejectsAbuse: the demoted set cannot be used to
// wave through a site that is not an elided store.
func TestVerifyRepatchedRejectsAbuse(t *testing.T) {
	prog, err := minic.Compile(repatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := codepatch.PatchWithOptions(prog, codepatch.PatchOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	demoted := map[analysis.SiteRef]bool{{Func: "bump", Index: 0}: true}
	if vs := analysis.VerifyRepatched(prog, res.DepMap, demoted); len(vs) == 0 {
		t.Fatal("demoting a non-elided site was not flagged")
	}
}

const loopSrc = `
int g = 0;
int tab[8];
int n = 12;

int churn() {
	int i;
	for (i = 0; i < n; i = i + 1) {
		g = g + i;
	}
	tab[1] = g;
	return g;
}

int main() {
	print(churn());
	return 0;
}
`

// TestRewriteFlipsFastSites: churn's in-loop store of g is covered by a
// hoisted preliminary check, so its check call uses the fast stub
// entry. Rewriting another store in the same function invalidates that
// coverage; the engine must flip the fast call to the full entry in the
// live text and drop the hoist from the working map.
func TestRewriteFlipsFastSites(t *testing.T) {
	prog, err := minic.Compile(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	img, err := codepatch.BuildImage(prog, codepatch.PatchOptions{Optimize: true}, arch.PageSize4K, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.Res.FastChecks == 0 || img.Res.HoistedChecks == 0 {
		t.Fatalf("workload produced no fast/hoisted checks (fast=%d hoist=%d); the test measures nothing",
			img.Res.FastChecks, img.Res.HoistedChecks)
	}
	// churn's non-implicit stores: 0 = the in-loop g store, 1 = tab[1].
	// Rewrite the tab store; the fast-checked g store depends on churn.
	if err := img.RewriteStore("churn", 1, 4); err != nil {
		t.Fatal(err)
	}
	if img.Stats.StubFlips == 0 {
		t.Error("no fast-stub calls were flipped to the full entry")
	}
	if img.Stats.HoistsDropped == 0 {
		t.Error("no hoist sites were dropped from the working map")
	}
	if vs := img.Verify(); len(vs) != 0 {
		t.Fatalf("post-flip image fails verification: %v", vs[0])
	}
	if err := img.M.Run(diffFuel); err != nil {
		t.Fatal(err)
	}
	// With every fast call flipped, the run must take zero fast hits.
	if img.W.FastHits != 0 {
		t.Errorf("flipped image still took %d fast hits", img.W.FastHits)
	}
}

// TestRewriteElidedStore: an elided store has no check pair; the
// rewrite touches exactly one word and the (demoted) image still
// verifies.
func TestRewriteElidedStore(t *testing.T) {
	img, _ := buildEngine(t, codepatch.PatchOptions{Optimize: true})
	if img.Res.EliminatedChecks == 0 {
		t.Fatal("no elided checks; the test measures nothing")
	}
	// bump's ordinal-4 store (`a = a + 1`) is elided: the ordinal-3
	// store of the same address dominates it.
	if err := img.RewriteStore("bump", 4, 4); err != nil {
		t.Fatal(err)
	}
	if img.Stats.WordsRewritten != 1 {
		t.Fatalf("WordsRewritten = %d, want 1 (no pair to rewrite)", img.Stats.WordsRewritten)
	}
	if vs := img.Verify(); len(vs) != 0 {
		t.Fatalf("post-rewrite image fails verification: %v", vs[0])
	}
	if err := img.M.Run(diffFuel); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorRangeErrors(t *testing.T) {
	img, _ := buildEngine(t, codepatch.PatchOptions{Optimize: true})
	if err := img.InstallMonitor(16, 16); err == nil {
		t.Error("empty install range accepted")
	}
	if err := img.RemoveMonitor(20, 16); err == nil {
		t.Error("empty remove range accepted")
	}
	if img.Stats.Installs != 0 || img.Stats.Removes != 0 {
		t.Errorf("failed updates were counted: %+v", img.Stats)
	}
}

func TestExpansionAccounting(t *testing.T) {
	if (&codepatch.PatchResult{}).Expansion() != 0 {
		t.Error("zero-word result must report zero expansion")
	}
	img, _ := buildEngine(t, codepatch.PatchOptions{Optimize: true})
	if e := img.Res.Expansion(); e <= 0 {
		t.Errorf("patched image reports non-positive expansion %v", e)
	}
}

// TestSMCScheduleInBounds pins the workload contract the fuzz decoder
// and the storm tests rely on: the shipped schedule's running offset
// delta stays within [0, 24] bytes at slot granularity.
func TestSMCScheduleInBounds(t *testing.T) {
	for _, scale := range []int{1, 3} {
		cum := int32(0)
		for i, rw := range progs.SMCRewrites(scale) {
			if rw.Func != "handler" || rw.Ordinal != 2 {
				t.Fatalf("step %d targets %s@%d, want handler@2", i, rw.Func, rw.Ordinal)
			}
			if rw.DeltaOff%4 != 0 {
				t.Fatalf("step %d delta %d not slot-granular", i, rw.DeltaOff)
			}
			cum += rw.DeltaOff
			if cum < 0 || cum > 24 {
				t.Fatalf("step %d cumulative delta %d outside [0, 24]", i, cum)
			}
			if i > 0 && rw.AfterStores <= progs.SMCRewrites(scale)[i-1].AfterStores {
				t.Fatalf("step %d threshold not increasing", i)
			}
		}
	}
}

// midRunSrc executes one store site twice, with a pause between the
// two executions.
const midRunSrc = `
int g = 0;
int tab[4];

int put() {
	tab[0] = g;
	return 0;
}

int main() {
	g = 5;
	put();
	g = 7;
	put();
	print(tab[0]);
	print(tab[1]);
	return 0;
}
`

// TestRewriteStoreBetweenExecutions: a RewriteStore landing after a
// store site has executed once retargets its second execution — the
// text word and its check pair both changed under a running machine.
func TestRewriteStoreBetweenExecutions(t *testing.T) {
	for _, opt := range []codepatch.PatchOptions{{}, {Optimize: true}} {
		t.Run(fmt.Sprintf("optimize=%v", opt.Optimize), func(t *testing.T) {
			prog, err := minic.Compile(midRunSrc)
			if err != nil {
				t.Fatal(err)
			}
			var notifs []wms.Notification
			img, err := codepatch.BuildImage(prog, opt, arch.PageSize4K, func(n wms.Notification) {
				notifs = append(notifs, n)
			})
			if err != nil {
				t.Fatal(err)
			}
			r := img.M.Image.Data["tab"]
			if err := img.InstallMonitor(r.BA, r.EA); err != nil {
				t.Fatal(err)
			}
			// Step to the first execution of put's store.
			for steps := 0; len(notifs) == 0; steps++ {
				if img.M.CPU.Halted || steps > diffFuel {
					t.Fatal("put's store never executed")
				}
				if err := img.M.CPU.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := img.RewriteStore("put", 0, 4); err != nil {
				t.Fatal(err)
			}
			if err := img.M.Run(diffFuel); err != nil {
				t.Fatal(err)
			}
			if got, want := img.M.Out.String(), "5\n7\n"; got != want {
				t.Fatalf("output %q, want %q: the second execution must store to tab[1]", got, want)
			}
			if len(notifs) != 2 || notifs[0].BA != r.BA || notifs[1].BA != r.BA+4 {
				t.Fatalf("notifications %+v, want one for tab[0], then one for tab[1]", notifs)
			}
		})
	}
}
