package analysis

import (
	"slices"
	"strings"
	"testing"

	"edb/internal/asm"
	"edb/internal/isa"
)

// prog builds a whole program from named function bodies, in order.
func prog(fns ...func(p *asm.Program)) *asm.Program {
	p := &asm.Program{}
	for _, add := range fns {
		add(p)
	}
	return p
}

// leafFn adds a named function with the given body.
func leafFn(name string, build func(f *asm.Func)) func(p *asm.Program) {
	return func(p *asm.Program) {
		f := p.AddFunc(name)
		build(f)
	}
}

func TestBuildCallGraphEdges(t *testing.T) {
	p := prog(
		leafFn("main", func(f *asm.Func) {
			f.Emit(asm.Call("a"))
			f.Emit(asm.Call("b"))
			f.Emit(asm.Call("a")) // duplicate edge dedupes
			f.Emit(asm.Ret())
		}),
		leafFn("a", func(f *asm.Func) {
			f.Emit(asm.Call("a")) // self-recursion
			f.Emit(asm.Ret())
		}),
		leafFn("b", func(f *asm.Func) { f.Emit(asm.Ret()) }),
	)
	cg := BuildCallGraph(p)
	if cg.HasUnknown {
		t.Fatal("fully resolved program marked HasUnknown")
	}
	if got := cg.Callees["main"]; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("main callees = %v, want [a b]", got)
	}
	if got := cg.Callers["a"]; len(got) != 2 || got[0] != "a" || got[1] != "main" {
		t.Errorf("a callers = %v, want [a main]", got)
	}
	sccs := cg.SCCs()
	// Bottom-up: {a} and {b} before {main}.
	last := sccs[len(sccs)-1]
	if len(last) != 1 || last[0] != "main" {
		t.Errorf("last SCC = %v, want [main]", last)
	}
}

func TestBuildCallGraphUnknowns(t *testing.T) {
	p := prog(
		leafFn("main", func(f *asm.Func) {
			f.Emit(asm.Call("missing")) // undefined callee
			f.Emit(asm.Ret())
		}),
		leafFn("ind", func(f *asm.Func) {
			// Indirect jump: kindIrregular.
			f.Emit(asm.I(isa.JALR, isa.RA, isa.Reg(10), 0))
			f.Emit(asm.Ret())
		}),
	)
	cg := BuildCallGraph(p)
	if !cg.CallsUnknown["main"] || !cg.CallsUnknown["ind"] || !cg.HasUnknown {
		t.Errorf("unknown-call marking wrong: %+v", cg.CallsUnknown)
	}
	// With HasUnknown, every entry set is bottom.
	sums := Summaries(p, cg)
	ctx := &ipContext{cg: cg, sums: sums}
	entries := computeEntries(p, ctx)
	for fn, s := range entries {
		if s.top || len(s.facts) != 0 {
			t.Errorf("entry[%s] = %v, want bottom", fn, s)
		}
	}
}

// framed builds a frame-disciplined function: the compiler's exact
// prologue/epilogue around the given body.
func framed(name string, words int, body func(f *asm.Func)) func(p *asm.Program) {
	return func(p *asm.Program) {
		f := p.AddFunc(name)
		f.FrameWords = words
		fb := int32(words) * 4
		f.Emit(asm.I(isa.ADDI, isa.SP, isa.SP, -fb))
		f.Emit(asm.SwImplicit(isa.RA, isa.SP, fb-4))
		f.Emit(asm.SwImplicit(isa.FP, isa.SP, fb-8))
		f.Emit(asm.I(isa.ADDI, isa.FP, isa.SP, fb))
		body(f)
		f.Emit(asm.Lw(isa.RA, isa.FP, -4))
		f.Emit(asm.Lw(isa.AT, isa.FP, -8))
		f.Emit(asm.I(isa.ADDI, isa.SP, isa.FP, 0))
		f.Emit(asm.I(isa.ADDI, isa.FP, isa.AT, 0))
		f.Emit(asm.Ret())
	}
}

func TestFrameDiscipline(t *testing.T) {
	p := prog(framed("main", 4, func(f *asm.Func) {
		f.Emit(asm.Sw(isa.Reg(10), isa.FP, -12))
	}))
	fi := frameOf(p.Funcs[0])
	if !fi.disciplined || fi.frameBytes != 16 {
		t.Fatalf("frameOf = %+v, want disciplined 16 bytes", fi)
	}
	// FP-relative slot inside the frame canonicalises; SP form of the
	// same slot agrees.
	if off, ok := frameSlot(Expr{Kind: ERegister, Reg: isa.FP, Off: -12}, fi); !ok || off != -12 {
		t.Errorf("fp-12 slot = %d,%v", off, ok)
	}
	if off, ok := frameSlot(Expr{Kind: ERegister, Reg: isa.SP, Off: 4}, fi); !ok || off != -12 {
		t.Errorf("sp+4 slot = %d,%v", off, ok)
	}
	// Outside the frame: not own.
	if _, ok := frameSlot(Expr{Kind: ERegister, Reg: isa.FP, Off: 4}, fi); ok {
		t.Error("fp+4 must not be an own-frame slot")
	}
	if _, ok := frameSlot(Expr{Kind: ESymbol, Sym: "g"}, fi); ok {
		t.Error("symbol must not be an own-frame slot")
	}

	// A rogue SP definition breaks discipline.
	p2 := prog(framed("main", 4, func(f *asm.Func) {
		f.Emit(asm.I(isa.ADDI, isa.SP, isa.SP, -4)) // mid-body SP bump
	}))
	if fi2 := frameOf(p2.Funcs[0]); fi2.disciplined {
		t.Error("rogue SP definition must break frame discipline")
	}
	// No frame at all.
	p3 := prog(leafFn("main", func(f *asm.Func) { f.Emit(asm.Ret()) }))
	if fi3 := frameOf(p3.Funcs[0]); fi3.disciplined {
		t.Error("frameless function must not be disciplined")
	}
}

func TestSummariesClassification(t *testing.T) {
	p := prog(
		leafFn("main", func(f *asm.Func) {
			f.Emit(asm.Call("quiet"))
			f.Emit(asm.Call("writer"))
			f.Emit(asm.Ret())
		}),
		framed("quiet", 4, func(f *asm.Func) {
			f.Emit(asm.Sw(isa.Reg(10), isa.FP, -12)) // own frame only
		}),
		framed("writer", 4, func(f *asm.Func) {
			f.Emit(asm.La(isa.Reg(12), "g", 0))
			f.Emit(asm.Sw(isa.Reg(10), isa.Reg(12), 4)) // g+4
		}),
		leafFn("pureleaf", func(f *asm.Func) {
			f.Emit(asm.I(isa.ADD, isa.Reg(10), isa.Reg(11), int32(isa.Reg(12))))
			f.Emit(asm.Ret())
		}),
	)
	cg := BuildCallGraph(p)
	sums := Summaries(p, cg)

	if s := sums["quiet"]; !s.Quiet || s.Pure || s.OwnFrameStores != 3 {
		t.Errorf("quiet = %+v", s)
	}
	if s := sums["writer"]; s.Quiet || s.Writes.Top {
		t.Errorf("writer = %+v", s)
	} else if !s.Writes.writesExpr(Expr{Kind: ESymbol, Sym: "g", Off: 4}, frameInfo{}) {
		t.Error("writer must may-write g+4")
	} else if s.Writes.writesExpr(Expr{Kind: ESymbol, Sym: "h", Off: 0}, frameInfo{}) {
		t.Error("writer must not may-write h")
	}
	if s := sums["pureleaf"]; !s.Pure || !s.Quiet {
		t.Errorf("pureleaf = %+v", s)
	}
	// main transitively writes what writer writes; calls make it unquiet.
	if s := sums["main"]; s.Quiet || !s.Writes.writesExpr(Expr{Kind: ESymbol, Sym: "g", Off: 4}, frameInfo{}) {
		t.Errorf("main = %+v", s)
	}
	if got := sums["writer"].Writes.String(); got != "g+4" {
		t.Errorf("writer writes = %q, want g+4", got)
	}
	if got := sums["quiet"].Writes.String(); got != "∅" {
		t.Errorf("quiet writes = %q, want ∅", got)
	}
	if !strings.Contains(sums["quiet"].String(), "quiet") {
		t.Errorf("summary string = %q", sums["quiet"].String())
	}
}

func TestSummariesRecursionAndTop(t *testing.T) {
	p := prog(
		leafFn("main", func(f *asm.Func) {
			f.Emit(asm.Call("even"))
			f.Emit(asm.Call("ext"))
			f.Emit(asm.Ret())
		}),
		// Mutual recursion: even ↔ odd, odd writes g.
		leafFn("even", func(f *asm.Func) {
			f.Emit(asm.Call("odd"))
			f.Emit(asm.Ret())
		}),
		leafFn("odd", func(f *asm.Func) {
			f.Emit(asm.La(isa.Reg(12), "g", 0))
			f.Emit(asm.Sw(isa.Reg(10), isa.Reg(12), 0))
			f.Emit(asm.Call("even"))
			f.Emit(asm.Ret())
		}),
		leafFn("ext", func(f *asm.Func) {
			f.Emit(asm.Call("undefined_extern"))
			f.Emit(asm.Ret())
		}),
	)
	cg := BuildCallGraph(p)
	sums := Summaries(p, cg)
	g := Expr{Kind: ESymbol, Sym: "g"}
	if !sums["even"].Writes.writesExpr(g, frameInfo{}) {
		t.Error("even must inherit odd's write of g through the SCC")
	}
	if !slices.ContainsFunc(cg.SCCs(), func(c []string) bool { return slices.Equal(c, []string{"even", "odd"}) }) {
		t.Errorf("even/odd must form one SCC: %v", cg.SCCs())
	}
	if !sums["ext"].Writes.Top {
		t.Error("a function calling an undefined extern must summarise to ⊤")
	}
	if got := sums["ext"].Writes.String(); got != "⊤" {
		t.Errorf("top writes = %q", got)
	}
	if !sums["main"].Writes.Top {
		t.Error("main must inherit ⊤ from ext")
	}
}

func TestWriteSetWidening(t *testing.T) {
	var ws WriteSet
	for i := 0; i <= maxOffsetsPerSym; i++ {
		ws.addGlobal("arr", int64(4*i))
	}
	if !ws.Globals["arr"].any {
		t.Fatal("offset set must widen past the bound")
	}
	if !ws.writesExpr(Expr{Kind: ESymbol, Sym: "arr", Off: 9999}, frameInfo{}) {
		t.Error("widened set must cover every offset")
	}
	if !strings.Contains(ws.String(), "arr+*") {
		t.Errorf("widened String = %q", ws.String())
	}
	var wc WriteSet
	wc.Consts.add(0x1000)
	if !wc.writesExpr(Expr{Kind: EConst, Off: 0x2000}, frameInfo{}) {
		t.Error("const writes alias any const address")
	}
	if wc.Empty() {
		t.Error("const write set is not empty")
	}
}

func TestCkSetLattice(t *testing.T) {
	g := Expr{Kind: ESymbol, Sym: "g"}
	h := Expr{Kind: ESymbol, Sym: "h"}
	var a, b ckSet
	a.add(g)
	a.add(h)
	b.add(g)
	m := meetSets(a, b)
	if !m.has(g) || m.has(h) {
		t.Errorf("meet = %v", m)
	}
	if !meetSets(setTopFact(), a).equal(a) || !meetSets(a, setTopFact()).equal(a) {
		t.Error("top must be the meet identity")
	}
	c := a.clone()
	c.removeIf(func(e Expr) bool { return e == g })
	if !a.has(g) || c.has(g) {
		t.Error("clone must not share fact storage")
	}
	if a.equal(b) || !a.equal(a.clone()) {
		t.Error("equal is wrong")
	}
	if s := setTopFact(); s.String() != "⊤" {
		t.Errorf("top String = %q", s.String())
	}
	if s := (ckSet{}); s.String() != "nothing" {
		t.Errorf("bottom String = %q", s.String())
	}
	if got := a.String(); got != "g+0,h+0" {
		t.Errorf("set String = %q", got)
	}
}

func TestExprsAlias(t *testing.T) {
	fi := frameInfo{disciplined: true, frameBytes: 16}
	slotA := Expr{Kind: ERegister, Reg: isa.FP, Off: -4}
	slotB := Expr{Kind: ERegister, Reg: isa.FP, Off: -8}
	g := Expr{Kind: ESymbol, Sym: "g"}
	h := Expr{Kind: ESymbol, Sym: "h"}
	cst := Expr{Kind: EConst, Off: 0x4000}
	unk := Expr{Kind: ERegister, Reg: isa.Reg(12)}

	cases := []struct {
		x, w Expr
		want bool
	}{
		{slotA, slotA, true},
		{slotA, slotB, false},
		{g, slotA, false},  // own-frame write cannot hit a global
		{cst, slotA, true}, // constant could coincide with the stack
		{slotA, g, false},  // symbol write cannot hit the frame
		{g, g, true},
		{g, h, false},
		{g, cst, true},
		{g, unk, true},
		{slotA, unk, true},
		{unk, g, true},
	}
	for _, c := range cases {
		if got := exprsAlias(c.x, c.w, fi); got != c.want {
			t.Errorf("alias(%v, %v) = %v, want %v", c.x, c.w, got, c.want)
		}
	}
}

// interTestProg: main checks g (via its store), calls a quiet callee,
// then stores g again — interprocedurally elidable, intraprocedurally
// not. The callee's own store to g is covered by main's pre-call store
// through the entry fact.
func interTestProg() *asm.Program {
	return prog(
		leafFn("main", func(f *asm.Func) {
			f.Emit(asm.La(isa.Reg(12), "g", 0))
			f.Emit(asm.Sw(isa.Reg(10), isa.Reg(12), 0)) // 1: g checked here
			f.Emit(asm.Call("quiet"))
			f.Emit(asm.La(isa.Reg(12), "g", 0))         // re-materialise (caller-saved)
			f.Emit(asm.Sw(isa.Reg(11), isa.Reg(12), 0)) // 4: elidable across call
			f.Emit(asm.Call("entryfact"))
			f.Emit(asm.Ret())
		}),
		framed("quiet", 4, func(f *asm.Func) {
			f.Emit(asm.Sw(isa.Reg(10), isa.FP, -12))
		}),
		leafFn("entryfact", func(f *asm.Func) {
			f.Emit(asm.La(isa.Reg(13), "g", 0))
			f.Emit(asm.Sw(isa.Reg(10), isa.Reg(13), 0)) // covered on entry
			f.Emit(asm.Ret())
		}),
	)
}

func TestInterprocElidesAcrossQuietCall(t *testing.T) {
	p := interTestProg()
	intra := PlanChecksWithOptions(p, PlanOptions{Intraproc: true})
	inter := PlanChecksWithOptions(p, PlanOptions{})
	if intra.EliminatedChecks != 0 {
		t.Fatalf("intraproc eliminated %d, want 0", intra.EliminatedChecks)
	}
	if inter.EliminatedChecks < 2 {
		t.Fatalf("interproc eliminated %d, want >= 2 (cross-call + entry fact)", inter.EliminatedChecks)
	}
	if inter.EliminatedIntra != intra.EliminatedChecks {
		t.Errorf("EliminatedIntra = %d, want %d", inter.EliminatedIntra, intra.EliminatedChecks)
	}
	if got := inter.Funcs["main"].ClassOf(4); got != CheckElided {
		t.Errorf("main store after quiet call = %v, want elided", got)
	}
	if got := inter.Funcs["entryfact"].ClassOf(1); got != CheckElided {
		t.Errorf("entryfact store = %v, want elided (entry fact)", got)
	}
	if inter.Deps == nil || len(inter.Deps.Sites) < 2 {
		t.Fatalf("dependence map missing: %+v", inter.Deps)
	}
	if intra.Deps != nil || intra.Interproc != nil {
		t.Error("intraproc plan must not carry interproc facts")
	}

	// The cross-call elision must record both the covering check and the
	// quiet callee's summary.
	var site *DepSite
	for i := range inter.Deps.Sites {
		s := &inter.Deps.Sites[i]
		if s.Func == "main" && s.Index == 4 {
			site = s
		}
	}
	if site == nil {
		t.Fatal("no dependence site for the cross-call elision")
	}
	var haveCheck, haveSummary bool
	for _, d := range site.Deps {
		switch d.Kind {
		case DepCheck:
			if d.Func == "main" && d.Index == 1 {
				haveCheck = true
			}
		case DepSummary:
			if d.Func == "quiet" {
				haveSummary = true
			}
		}
	}
	if !haveCheck || !haveSummary {
		t.Errorf("cross-call site deps = %+v, want covering check and quiet summary", site.Deps)
	}

	// Entry facts are visible through the public accessor.
	ip := inter.Interproc
	facts := ip.EntryFacts("entryfact")
	if len(facts) != 1 || facts[0].String() != "g+0" {
		t.Errorf("EntryFacts(entryfact) = %v, want [g+0]", facts)
	}
	if got := ip.EntryFacts("main"); len(got) != 0 {
		t.Errorf("EntryFacts(main) = %v, want none", got)
	}
}

// A writing callee must kill the fact; an unknown callee kills
// everything.
func TestInterprocCallKills(t *testing.T) {
	p := prog(
		leafFn("main", func(f *asm.Func) {
			f.Emit(asm.La(isa.Reg(12), "g", 0))
			f.Emit(asm.Sw(isa.Reg(10), isa.Reg(12), 0))
			f.Emit(asm.Call("writesg"))
			f.Emit(asm.La(isa.Reg(12), "g", 0))
			f.Emit(asm.Sw(isa.Reg(11), isa.Reg(12), 0)) // 4: NOT elidable
			f.Emit(asm.Ret())
		}),
		leafFn("writesg", func(f *asm.Func) {
			f.Emit(asm.La(isa.Reg(13), "g", 0))
			f.Emit(asm.Sw(isa.Reg(10), isa.Reg(13), 0))
			f.Emit(asm.Ret())
		}),
	)
	inter := PlanChecksWithOptions(p, PlanOptions{})
	if got := inter.Funcs["main"].ClassOf(4); got != CheckFull {
		t.Errorf("store after writing callee = %v, want full", got)
	}
	// writesg's own store elides: main's store dominates the call.
	if got := inter.Funcs["writesg"].ClassOf(1); got != CheckElided {
		t.Errorf("writesg entry-fact store = %v, want elided", got)
	}
}

func TestDepMapRoundTripDeterminism(t *testing.T) {
	p := interTestProg()
	plan := PlanChecksWithOptions(p, PlanOptions{})
	b1, err := plan.Deps.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := ParseDepMap(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := dm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("round trip not deterministic:\n%s\n%s", b1, b2)
	}
	if _, err := ParseDepMap([]byte("{not json")); err == nil {
		t.Error("garbage must not parse")
	}

	// DependentsOf: a change to quiet invalidates the cross-call site.
	deps := plan.Deps.DependentsOf("quiet")
	found := false
	for _, s := range deps {
		if s.Func == "main" && s.Class == SiteElided {
			found = true
		}
	}
	if !found {
		t.Errorf("DependentsOf(quiet) = %+v, want the main elision", deps)
	}
	// Sites in a function are their own dependents.
	if got := plan.Deps.DependentsOf("entryfact"); len(got) == 0 {
		t.Error("DependentsOf(entryfact) must include its own site")
	}
	if got := plan.Deps.DependentsOf("nosuchfunc"); len(got) != 0 {
		t.Errorf("DependentsOf(nosuchfunc) = %+v, want none", got)
	}

	for _, d := range []Dep{
		{Kind: DepCheck, Func: "f", Index: 3},
		{Kind: DepSummary, Func: "g"},
		{Kind: DepEntry, Func: "h"},
	} {
		if d.String() == "" {
			t.Error("Dep.String must render")
		}
	}
}
