package codepatch_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/progs"
)

// Property and metamorphic suite for the dependence map — the
// incremental engine's invalidation index. The engine is only as sound
// as two claims about the map: DependentsOf returns exactly the sites
// whose justification mentions a function (no more: demotion stays
// cheap; no fewer: a missed dependent is an unsound elision after a
// rewrite), and a corrupted map cannot slip past
// VerifyPatchedWithDeps. Both are checked on the five paper workloads
// plus the self-modifying workload.

// stormWorkloads is the six-workload set of the re-patch test wall.
func stormWorkloads() []string { return append(progs.Names(), "smc") }

// interPatch compiles and interprocedurally patches one workload,
// returning the patched program and its dependence map.
func interPatch(t *testing.T, name string) (*stormRun, *analysis.DepMap) {
	t.Helper()
	p, err := progs.ByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	sr := buildStorm(t, p.Source, analysis.PlanChecks, true)
	dm := sr.res.DepMap
	if dm == nil || len(dm.Sites) == 0 {
		t.Fatalf("%s: interproc patch shipped no dependence map", name)
	}
	return sr, dm
}

// mentions reports whether the site's justification involves fn.
func mentions(s analysis.DepSite, fn string) bool {
	if s.Func == fn {
		return true
	}
	for _, d := range s.Deps {
		if d.Func == fn {
			return true
		}
	}
	return false
}

func siteID(s analysis.DepSite) string {
	return fmt.Sprintf("%s@%d/%s/%s", s.Func, s.Index, s.Class, s.Expr)
}

// TestDepMapClosureExact: DependentsOf(fn) is minimal (every returned
// site mentions fn) and sound (every site mentioning fn — checked from
// the quantifier-flipped side, per dep — is returned), for every
// function of every workload.
func TestDepMapClosureExact(t *testing.T) {
	for _, name := range stormWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sr, dm := interPatch(t, name)
			for _, f := range sr.img.Prog.Funcs {
				fn := f.Name
				got := make(map[string]bool)
				for _, s := range dm.DependentsOf(fn) {
					if !mentions(s, fn) {
						t.Errorf("DependentsOf(%q) over-approximates: returned %s", fn, siteID(s))
					}
					got[siteID(s)] = true
				}
				for _, s := range dm.Sites {
					if mentions(s, fn) && !got[siteID(s)] {
						t.Errorf("DependentsOf(%q) misses %s", fn, siteID(s))
					}
				}
			}
			if vs := analysis.VerifyPatchedWithDeps(sr.img.Prog, dm); len(vs) != 0 {
				t.Fatalf("uncorrupted map fails verification: %v", vs[0])
			}
		})
	}
}

// TestDepMapRoundTrip: the map survives Encode/ParseDepMap bit-exactly
// and DependentsOf is invariant under site-order permutation (the
// encoding normalizes order; the query must not depend on it).
func TestDepMapRoundTrip(t *testing.T) {
	sr, dm := interPatch(t, "smc")
	enc, err := dm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := analysis.ParseDepMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := rt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Error("Encode/Parse/Encode is not a fixed point")
	}
	// Reverse the parsed map's site order: queries must agree with the
	// original as sets.
	rev := &analysis.DepMap{Sites: make([]analysis.DepSite, len(rt.Sites))}
	for i, s := range rt.Sites {
		rev.Sites[len(rt.Sites)-1-i] = s
	}
	for _, f := range sr.img.Prog.Funcs {
		a, b := dm.DependentsOf(f.Name), rev.DependentsOf(f.Name)
		if len(a) != len(b) {
			t.Fatalf("DependentsOf(%q) cardinality depends on site order: %d vs %d", f.Name, len(a), len(b))
		}
		seen := make(map[string]bool, len(a))
		for _, s := range a {
			seen[siteID(s)] = true
		}
		for _, s := range b {
			if !seen[siteID(s)] {
				t.Fatalf("DependentsOf(%q) content depends on site order", f.Name)
			}
		}
	}
}

// cloneDM deep-copies a dependence map so one corruption cannot leak
// into the next case.
func cloneDM(dm *analysis.DepMap) *analysis.DepMap {
	out := &analysis.DepMap{Sites: make([]analysis.DepSite, len(dm.Sites))}
	for i, s := range dm.Sites {
		out.Sites[i] = s
		out.Sites[i].Deps = append([]analysis.Dep(nil), s.Deps...)
	}
	return out
}

// TestDepMapCorruptionCaught: every class of map corruption — a
// retargeted check dep, a summary dep on a vanished callee, a dep of
// unknown kind, a site with the wrong expression, a deleted elided
// site — yields at least one violation from VerifyPatchedWithDeps.
// Site/dep pairs are strided so the test stays fast while every
// workload still exercises every corruption class it has material for.
func TestDepMapCorruptionCaught(t *testing.T) {
	const maxCasesPerWorkload = 36
	for _, name := range stormWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sr, dm := interPatch(t, name)
			prog := sr.img.Prog

			type corruption struct {
				desc   string
				mutate func(*analysis.DepMap)
			}
			var cases []corruption
			for si := range dm.Sites {
				si := si
				s := dm.Sites[si]
				if s.Class == analysis.SiteElided {
					cases = append(cases, corruption{
						desc: fmt.Sprintf("delete elided site %s", siteID(s)),
						mutate: func(bad *analysis.DepMap) {
							bad.Sites = append(bad.Sites[:si], bad.Sites[si+1:]...)
						},
					})
				}
				cases = append(cases, corruption{
					desc: fmt.Sprintf("wrong expr at %s", siteID(s)),
					mutate: func(bad *analysis.DepMap) {
						bad.Sites[si].Expr = "r9+715827882"
					},
				})
				for di := range s.Deps {
					di := di
					d := s.Deps[di]
					var mut func(*analysis.DepMap)
					switch d.Kind {
					case analysis.DepCheck:
						mut = func(bad *analysis.DepMap) { bad.Sites[si].Deps[di].Index = 1 << 20 }
					case analysis.DepSummary:
						mut = func(bad *analysis.DepMap) { bad.Sites[si].Deps[di].Func = "__no_such_callee" }
					default: // DepEntry re-derives from the site, so break the kind itself
						mut = func(bad *analysis.DepMap) { bad.Sites[si].Deps[di].Kind = "bogus" }
					}
					cases = append(cases, corruption{
						desc:   fmt.Sprintf("corrupt %s dep %d of %s", d.Kind, di, siteID(s)),
						mutate: mut,
					})
				}
			}
			stride := 1
			if len(cases) > maxCasesPerWorkload {
				stride = (len(cases) + maxCasesPerWorkload - 1) / maxCasesPerWorkload
			}
			for ci := 0; ci < len(cases); ci += stride {
				c := cases[ci]
				bad := cloneDM(dm)
				c.mutate(bad)
				if vs := analysis.VerifyPatchedWithDeps(prog, bad); len(vs) == 0 {
					t.Errorf("corruption not caught: %s", c.desc)
				}
			}
		})
	}
}

// decodeStormScript interprets raw bytes as a bounded storm script over
// the smc workload: triples of (op, threshold-delta, parameter). Install
// and remove draw ranges from the image's data symbols; rewrites target
// the handler's slot-table store with slot-granular deltas whose running
// sum is clamped to [0, 24] bytes so every retargeted store stays inside
// slot_tab. The same decoder seeds the checked-in corpus, so corpus
// entries stay valid as the script format evolves.
func decodeStormScript(data []byte, m *kernel.Machine) []repatchOp {
	pool := stormRangePool(m)
	var script []repatchOp
	after := uint64(0)
	cum := int32(0)
	for k := 0; k+2 < len(data) && len(script) < 12; k += 3 {
		op, th, pr := data[k], data[k+1], data[k+2]
		after += uint64(th) * 16
		switch op % 3 {
		case 0, 1:
			if len(pool) == 0 {
				continue
			}
			r := pool[int(pr)%len(pool)]
			kind := byte('i')
			if op%3 == 1 {
				kind = 'r'
			}
			script = append(script, repatchOp{After: after, Kind: kind, R: r})
		case 2:
			deltas := [4]int32{-8, -4, 4, 8}
			d := deltas[int(pr)%4]
			if cum+d < 0 || cum+d > 24 {
				continue
			}
			cum += d
			script = append(script, repatchOp{
				After: after, Kind: 'w', Func: "handler", Ordinal: 2, Delta: d,
			})
		}
	}
	return script
}

// stormRangePool lists the image's data symbols in name order, plus the
// whole-globals range.
func stormRangePool(m *kernel.Machine) []arch.Range {
	syms := make([]string, 0, len(m.Image.Data))
	for s := range m.Image.Data {
		syms = append(syms, s)
	}
	sortStrings(syms)
	pool := make([]arch.Range, 0, len(syms)+1)
	for _, s := range syms {
		pool = append(pool, m.Image.Data[s])
	}
	if len(pool) > 0 {
		pool = append(pool, arch.Range{BA: pool[0].BA, EA: m.Image.GlobalEnd})
	}
	return pool
}

func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// FuzzRepatchScript: arbitrary interleaved install/remove/rewrite
// scripts against the self-modifying workload, every optimization tier
// (selected by the first byte), incremental always pinned to the
// full-flush oracle, the image re-proved after the storm.
func FuzzRepatchScript(f *testing.F) {
	for _, seed := range repatchFuzzSeeds() {
		f.Add(seed)
	}
	src := progs.SMC(1).Source
	fuel := progs.SMC(1).Fuel
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 64 {
			t.Skip("script out of size bounds")
		}
		v := patchVariants[int(data[0])%len(patchVariants)]
		full := buildStorm(t, src, v.plan, false)
		incr := buildStorm(t, src, v.plan, true)
		script := decodeStormScript(data[1:], full.m)
		runStorm(t, full, script, fuel)
		runStorm(t, incr, script, fuel)
		compareStorm(t, full, incr)
		for _, sr := range []*stormRun{full, incr} {
			if vs := sr.img.Verify(); len(vs) != 0 {
				t.Fatalf("post-storm image fails re-verification: %v", vs[0])
			}
		}
	})
}

// repatchFuzzSeeds is the deterministic seed set behind both f.Add and
// the checked-in corpus: per optimization tier, an install/remove-only
// storm, a rewrite-only storm, and a dense interleaving.
func repatchFuzzSeeds() [][]byte {
	var seeds [][]byte
	for tier := byte(0); tier < 3; tier++ {
		seeds = append(seeds,
			append([]byte{tier}, 0, 1, 0, 1, 2, 1, 0, 5, 2, 1, 9, 0),
			append([]byte{tier}, 2, 8, 2, 2, 12, 3, 2, 20, 1, 2, 7, 0),
			append([]byte{tier}, 0, 2, 0, 2, 6, 2, 1, 4, 1, 2, 11, 3, 0, 3, 4, 2, 18, 2),
		)
	}
	return seeds
}

// TestGenerateRepatchFuzzCorpus regenerates the checked-in
// FuzzRepatchScript seed corpus under testdata/fuzz/FuzzRepatchScript.
// Skipped unless EDB_REGEN_FUZZ_CORPUS=1 — the corpus is a committed
// artifact, not a per-run output.
func TestGenerateRepatchFuzzCorpus(t *testing.T) {
	if os.Getenv("EDB_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set EDB_REGEN_FUZZ_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRepatchScript")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range repatchFuzzSeeds() {
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		path := filepath.Join(dir, fmt.Sprintf("storm-%02d", i))
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(seed))
	}
}
