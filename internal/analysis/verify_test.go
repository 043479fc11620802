package analysis_test

import (
	"strings"
	"testing"

	"edb/internal/analysis"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/core/trappatch"
	"edb/internal/isa"
	"edb/internal/minic"
	"edb/internal/progs"
)

// TestVerifyAllWorkloads is the acceptance gate: every benchmark
// workload, patched by both the unoptimized and the optimized CodePatch
// patcher, must verify sound — and TrapPatch must leave no stores.
func TestVerifyAllWorkloads(t *testing.T) {
	for _, name := range progs.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := progs.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			compile := func() *asm.Program {
				prog, err := minic.Compile(p.Source)
				if err != nil {
					t.Fatal(err)
				}
				return prog
			}

			prog := compile()
			if _, err := codepatch.Patch(prog, nil); err != nil {
				t.Fatal(err)
			}
			if vs := analysis.VerifyPatched(prog); len(vs) != 0 {
				t.Errorf("CP image has %d violations, first: %s", len(vs), vs[0])
			}

			prog = compile()
			if _, err := codepatch.Patch(prog, analysis.PlanChecks(prog)); err != nil {
				t.Fatal(err)
			}
			if vs := analysis.VerifyPatched(prog); len(vs) != 0 {
				t.Errorf("CP-opt image has %d violations, first: %s", len(vs), vs[0])
			}

			prog = compile()
			tp, err := trappatch.Patch(prog)
			if err != nil {
				t.Fatal(err)
			}
			if vs := analysis.VerifyTrapPatched(prog, tp.Table); len(vs) != 0 {
				t.Errorf("TP image has %d violations, first: %s", len(vs), vs[0])
			}
		})
	}
}

const verifySrc = `
int g = 0;
int bump(int v) { g = g + v; return g; }
int main() {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < 8; i = i + 1) { acc = acc + bump(i); }
	print(acc);
	return 0;
}
`

func optPatched(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := minic.Compile(verifySrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codepatch.Patch(prog, analysis.PlanChecks(prog)); err != nil {
		t.Fatal(err)
	}
	if vs := analysis.VerifyPatched(prog); len(vs) != 0 {
		t.Fatalf("pristine patch must verify, got: %v", vs)
	}
	return prog
}

// findPair locates one check pair (AT2 materialisation + check call) in
// a non-stub function and returns the function and the pair index.
func findPair(t *testing.T, p *asm.Program) (*asm.Func, int) {
	t.Helper()
	for fi, f := range p.Funcs {
		if fi == 0 {
			continue // stub
		}
		for i := 0; i+1 < len(f.Body); i++ {
			in, next := f.Body[i], f.Body[i+1]
			matAT2 := (in.Pseudo == asm.PNone && in.Op == isa.ADDI && in.RD == isa.AT2) ||
				((in.Pseudo == asm.PLa || in.Pseudo == asm.PLi) && in.RD == isa.AT2)
			if matAT2 && next.Pseudo == asm.PNone && next.Op == isa.JALR &&
				next.RD == isa.PLink && next.RS1 == isa.R0 {
				return f, i
			}
		}
	}
	t.Fatal("no check pair found in patched program")
	return nil, 0
}

// TestVerifyCorruptedAddress is the required negative test: skew the
// checked address so it no longer matches the guarded store, and the
// verifier must object.
func TestVerifyCorruptedAddress(t *testing.T) {
	prog := optPatched(t)
	f, i := findPair(t, prog)
	f.Body[i].Imm += 4 // check a different word than the store writes
	vs := analysis.VerifyPatched(prog)
	if len(vs) == 0 {
		t.Fatal("corrupted check address must fail verification")
	}
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "not covered by a dominating matching check") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an uncovered-store violation, got: %v", vs)
	}
}

// TestVerifyCorruptedStubTarget redirects one check call away from the
// stub entries.
func TestVerifyCorruptedStubTarget(t *testing.T) {
	prog := optPatched(t)
	f, i := findPair(t, prog)
	f.Body[i+1].Imm += 12 // past the 3-word stub
	vs := analysis.VerifyPatched(prog)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "not a stub entry") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a stub-target violation, got: %v", vs)
	}
}

// TestVerifyReservedRegisterClobber turns a program instruction into a
// write of AT2 that is not part of a check pair.
func TestVerifyReservedRegisterClobber(t *testing.T) {
	prog := optPatched(t)
	// Find a plain ALU instruction in a non-stub function and retarget
	// its destination at AT2 (without a following check call).
	for fi, f := range prog.Funcs {
		if fi == 0 {
			continue
		}
		for i, in := range f.Body {
			if in.Pseudo != asm.PNone || in.Op != isa.ADDI || in.RD == isa.AT2 {
				continue
			}
			if i+1 < len(f.Body) {
				next := f.Body[i+1]
				if next.Pseudo == asm.PNone && next.Op == isa.JALR && next.RD == isa.PLink {
					continue // would form a pair
				}
			}
			f.Body[i].RD = isa.AT2
			vs := analysis.VerifyPatched(prog)
			for _, v := range vs {
				if strings.Contains(v.Msg, "reserved register") {
					return
				}
			}
			t.Fatalf("expected a reserved-register violation, got: %v", vs)
		}
	}
	t.Fatal("no suitable instruction to corrupt")
}

// TestVerifyUnpatchedProgramFails: a never-patched program must fail —
// no stub, and every store uncovered.
func TestVerifyUnpatchedProgramFails(t *testing.T) {
	prog, err := minic.Compile(verifySrc)
	if err != nil {
		t.Fatal(err)
	}
	vs := analysis.VerifyPatched(prog)
	if len(vs) == 0 {
		t.Fatal("unpatched program must not verify")
	}
	if !strings.Contains(vs[0].Msg, "first function must be") {
		t.Errorf("first violation should flag the missing stub: %s", vs[0])
	}
}

// TestVerifyTrapPatchedNegative: a lingering store and an out-of-range
// trap code must both be flagged.
func TestVerifyTrapPatchedNegative(t *testing.T) {
	prog, err := minic.Compile(verifySrc)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := trappatch.Patch(prog)
	if err != nil {
		t.Fatal(err)
	}
	if vs := analysis.VerifyTrapPatched(prog, tp.Table); len(vs) != 0 {
		t.Fatalf("pristine trap patch must verify, got: %v", vs)
	}
	// Re-introduce a store at the end of a function body (appending does
	// not disturb label indices).
	f := prog.Funcs[len(prog.Funcs)-1]
	f.Emit(asm.Sw(isa.Reg(10), isa.FP, -4))
	vs := analysis.VerifyTrapPatched(prog, tp.Table)
	foundStore := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "unpatched store remains") {
			foundStore = true
		}
	}
	if !foundStore {
		t.Errorf("expected an unpatched-store violation, got: %v", vs)
	}
	// Out-of-range trap code.
	f.Emit(asm.I(isa.TRAP, 0, 0, int32(len(tp.Table))))
	vs = analysis.VerifyTrapPatched(prog, tp.Table)
	foundRange := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "outside side table") {
			foundRange = true
		}
	}
	if !foundRange {
		t.Errorf("expected an out-of-range trap violation, got: %v", vs)
	}
}

// TestCheckFuncNameMatchesCodepatch pins the duplicated constant to the
// real one (they live in different packages to avoid an import cycle).
func TestCheckFuncNameMatchesCodepatch(t *testing.T) {
	prog, err := minic.Compile(verifySrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codepatch.Patch(prog, nil); err != nil {
		t.Fatal(err)
	}
	if prog.Funcs[0].Name != codepatch.CheckFuncName {
		t.Fatalf("stub is %q, want %q", prog.Funcs[0].Name, codepatch.CheckFuncName)
	}
	// VerifyPatched accepting the image proves analysis.checkFuncName
	// equals codepatch.CheckFuncName.
	if vs := analysis.VerifyPatched(prog); len(vs) != 0 {
		t.Fatalf("verify failed: %v", vs)
	}
}

// interVerifySrc has a quiet helper between two stores of the same
// global, so the interprocedural planner elides across the call and the
// dependence map carries summary/check/entry facts worth corrupting.
const interVerifySrc = `
int g = 0;
int h = 0;
int quiet(int a) {
	int t;
	t = a + 1;
	return t * 2;
}
int main() {
	int i;
	int acc;
	acc = 0;
	g = 1;
	acc = quiet(acc);
	g = g + 1;
	for (i = 0; i < 8; i = i + 1) { h = h + i; acc = acc + quiet(i); }
	print(acc);
	return 0;
}
`

// optPatchedWithDeps builds an interprocedurally optimized patch and its
// dependence map, asserting the pristine pair verifies.
func optPatchedWithDeps(t *testing.T) (*asm.Program, *analysis.DepMap) {
	t.Helper()
	prog, err := minic.Compile(interVerifySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := codepatch.Patch(prog, analysis.PlanChecks(prog))
	if err != nil {
		t.Fatal(err)
	}
	if res.EliminatedChecks <= res.EliminatedIntra {
		t.Fatalf("interproc must elide more than intraproc here (got %d vs %d)",
			res.EliminatedChecks, res.EliminatedIntra)
	}
	if res.DepMap == nil || len(res.DepMap.Sites) == 0 {
		t.Fatal("optimized patch must carry a dependence map")
	}
	if vs := analysis.VerifyPatchedWithDeps(prog, res.DepMap); len(vs) != 0 {
		t.Fatalf("pristine patch+map must verify, got: %v", vs)
	}
	return prog, res.DepMap
}

// reEncode round-trips the map through its serialized form, as the
// future re-patcher will receive it.
func reEncode(t *testing.T, dm *analysis.DepMap) *analysis.DepMap {
	t.Helper()
	b, err := dm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := analysis.ParseDepMap(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerifyDepMapCorruption is the required negative test: every way of
// corrupting the serialized dependence map — dropping a site, skewing an
// expression, retargeting a dependency, lying about a class — must be
// rejected by VerifyPatchedWithDeps.
func TestVerifyDepMapCorruption(t *testing.T) {
	prog, dm := optPatchedWithDeps(t)

	// Pick the elided store of the global g: main's own summary writes g,
	// so a bogus "summary main" dep on this site is provably false.
	elidedAt := -1
	for i, s := range dm.Sites {
		if s.Class == "elided" && s.Expr == "g+0" {
			elidedAt = i
			break
		}
	}
	if elidedAt < 0 {
		t.Fatal("no elided g+0 site in the dependence map")
	}

	corrupt := func(name string, mutate func(c *analysis.DepMap), wantMsg string) {
		t.Run(name, func(t *testing.T) {
			c := reEncode(t, dm)
			mutate(c)
			vs := analysis.VerifyPatchedWithDeps(prog, c)
			if len(vs) == 0 {
				t.Fatal("corrupted dependence map must not verify")
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.Msg, wantMsg) {
					found = true
				}
			}
			if !found {
				t.Errorf("want a violation containing %q, got: %v", wantMsg, vs)
			}
		})
	}

	corrupt("drop-site", func(c *analysis.DepMap) {
		c.Sites = append(c.Sites[:elidedAt], c.Sites[elidedAt+1:]...)
	}, "missing a site")
	corrupt("skew-expr", func(c *analysis.DepMap) {
		c.Sites[elidedAt].Expr = "h+0"
	}, "dependence map")
	corrupt("skew-index", func(c *analysis.DepMap) {
		c.Sites[elidedAt].Index += 1
	}, "dependence map")
	corrupt("wrong-func", func(c *analysis.DepMap) {
		c.Sites[elidedAt].Func = "nosuchfunc"
	}, "dependence map")
	corrupt("wrong-class", func(c *analysis.DepMap) {
		c.Sites[elidedAt].Class = "fast"
	}, "dependence map")
	corrupt("bogus-class", func(c *analysis.DepMap) {
		c.Sites[elidedAt].Class = "teleported"
	}, "unknown class")
	corrupt("retarget-check-dep", func(c *analysis.DepMap) {
		s := &c.Sites[elidedAt]
		s.Deps = append(s.Deps, analysis.Dep{Kind: "check", Func: s.Func, Index: 0})
	}, "does not check")
	corrupt("bogus-summary-dep", func(c *analysis.DepMap) {
		s := &c.Sites[elidedAt]
		s.Deps = append(s.Deps, analysis.Dep{Kind: "summary", Func: "main"})
	}, "summary dep")
	corrupt("bogus-entry-dep", func(c *analysis.DepMap) {
		s := &c.Sites[elidedAt]
		s.Deps = append(s.Deps, analysis.Dep{Kind: "entry", Func: s.Func})
	}, "entry dep")
	corrupt("bogus-dep-kind", func(c *analysis.DepMap) {
		s := &c.Sites[elidedAt]
		s.Deps = append(s.Deps, analysis.Dep{Kind: "vibes", Func: s.Func})
	}, "unknown kind")
}

// TestVerifyWithDepsWorkloads: the shipped dependence map of every
// workload's interproc patch validates against the patched image.
func TestVerifyWithDepsWorkloads(t *testing.T) {
	for _, name := range progs.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := progs.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := minic.Compile(p.Source)
			if err != nil {
				t.Fatal(err)
			}
			res, err := codepatch.Patch(prog, analysis.PlanChecks(prog))
			if err != nil {
				t.Fatal(err)
			}
			dm := reEncode(t, res.DepMap)
			if vs := analysis.VerifyPatchedWithDeps(prog, dm); len(vs) != 0 {
				t.Errorf("%d violations, first: %s", len(vs), vs[0])
			}
			if res.EliminatedChecks < res.EliminatedIntra {
				t.Errorf("interproc elides %d < intraproc %d", res.EliminatedChecks, res.EliminatedIntra)
			}
		})
	}
}
