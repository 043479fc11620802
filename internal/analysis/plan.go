package analysis

import (
	"edb/internal/asm"
	"edb/internal/isa"
)

// CheckClass is the statically assigned class of one store's CodePatch
// check.
type CheckClass int

// Check classes, cheapest first at run time.
const (
	// CheckFull is the unoptimized per-store check: one SoftwareLookup.
	CheckFull CheckClass = iota
	// CheckFast is a downgraded in-loop check covered by a hoisted
	// preliminary check: it first consults the preliminary-check cache
	// for the price of an inline compare, falling back to the full
	// lookup on a miss.
	CheckFast
	// CheckElided is a check eliminated entirely: a dominating check of
	// a provably-equal address expression, with no intervening
	// redefinition of the base register and no intervening call, already
	// covers this store.
	CheckElided
)

func (c CheckClass) String() string {
	switch c {
	case CheckFast:
		return "fast"
	case CheckElided:
		return "elided"
	default:
		return "full"
	}
}

// maxHoistsPerLoop bounds the preliminary checks inserted in one loop
// preheader, so loop-entry cost stays bounded.
const maxHoistsPerLoop = 4

// Hoist is one preheader insertion: preliminary checks of Exprs are
// inserted immediately before body index InsertAt (the loop header),
// with the header's labels re-pointed past them so only loop entry —
// never the back edge — executes them.
type Hoist struct {
	InsertAt int
	Exprs    []Expr
}

// FuncPlan is the optimization plan for one function.
type FuncPlan struct {
	// CFG is the graph the plan was computed over (pre-patch body
	// indices).
	CFG *CFG
	// Class maps the body index of every SW to its check class; stores
	// absent from the map are CheckFull.
	Class map[int]CheckClass
	// Hoists lists preheader insertions in increasing InsertAt order.
	Hoists []Hoist
	// fastCover maps a CheckFast store's body index to the InsertAt of
	// the hoist whose preliminary check covers it (dependence-map input).
	fastCover map[int]int
}

// ClassOf returns the check class of the store at body index i.
func (fp *FuncPlan) ClassOf(i int) CheckClass {
	if fp == nil || fp.Class == nil {
		return CheckFull
	}
	return fp.Class[i]
}

// Plan is a whole-program check-optimization plan.
type Plan struct {
	// Funcs maps function name to its plan.
	Funcs map[string]*FuncPlan

	// Static totals over all functions.
	EliminatedChecks int // stores whose check is elided
	FastChecks       int // stores downgraded to the cheap compare
	HoistedChecks    int // preliminary checks inserted in preheaders

	// EliminatedIntra is the elision count the purely intraprocedural
	// analysis achieves on the same program (the ablation baseline);
	// EliminatedChecks >= EliminatedIntra always holds, because the
	// interprocedural fact set pointwise contains the intraprocedural
	// most-recent-check fact.
	EliminatedIntra int

	// Interproc holds the whole-program facts (call graph, write
	// summaries, entry sets) the cross-call elisions were derived from;
	// nil when the plan was computed in intraprocedural mode.
	Interproc *Interproc
	// Deps records, per optimized site, the static facts justifying it;
	// nil in intraprocedural mode. codepatch remaps its indices onto the
	// patched body and ships it in the patch artifact.
	Deps *DepMap
}

// PlanOptions selects planner variants.
type PlanOptions struct {
	// Intraproc restricts the planner to PR 2's single-function
	// analysis: calls are barriers and no dependence map is produced.
	// Kept for the ablation and as a belt-and-suspenders fallback.
	Intraproc bool
}

// PlanChecks computes the static check-optimization plan for an
// UNPATCHED program: which stores' checks can be elided, which loops
// admit a hoisted preliminary check, and which in-loop checks downgrade
// to the cheap compare. codepatch.Patch consumes the plan; it is
// deterministic, so the same source always yields the same patched
// image. Planning is interprocedural by default (cross-call
// elision via callee write summaries and entry facts); pass
// PlanOptions{Intraproc: true} for the PR 2 baseline.
func PlanChecks(p *asm.Program) *Plan {
	return PlanChecksWithOptions(p, PlanOptions{})
}

// PlanChecksWithOptions is PlanChecks with explicit options.
func PlanChecksWithOptions(p *asm.Program, o PlanOptions) *Plan {
	plan := &Plan{Funcs: make(map[string]*FuncPlan)}
	for _, f := range p.Funcs {
		fp := planFunc(f)
		plan.Funcs[f.Name] = fp
		for _, c := range fp.Class {
			if c == CheckElided {
				plan.EliminatedIntra++
			}
		}
	}
	if !o.Intraproc {
		plan.Interproc = ComputeInterproc(p)
		plan.Deps = &DepMap{}
		for _, f := range p.Funcs {
			planFuncInter(f, plan.Funcs[f.Name], plan.Interproc, plan.Deps)
		}
	}
	for _, fp := range plan.Funcs {
		for _, c := range fp.Class {
			switch c {
			case CheckElided:
				plan.EliminatedChecks++
			case CheckFast:
				plan.FastChecks++
			}
		}
		for _, h := range fp.Hoists {
			plan.HoistedChecks += len(h.Exprs)
		}
	}
	return plan
}

// planFuncInter upgrades fp with the interprocedural available-check
// dataflow: any store whose address expression is in the set on entry
// to the instruction loses its check, whether the covering fact crossed
// a call (a quiet callee), arrived on function entry (checked at every
// call site), or was simply out of reach of the single-fact lattice.
// Every resulting elision — including the purely intraprocedural ones —
// gets a dependence-map site recording the facts that justify it.
func planFuncInter(f *asm.Func, fp *FuncPlan, ip *Interproc, deps *DepMap) {
	g := fp.CFG
	if g == nil || g.Irregular || len(g.Blocks) == 0 {
		// Unmodelled control flow could enter the middle of a block,
		// bypassing the dominating check; leave the function alone.
		return
	}
	fi := frameOf(f)
	ctx := ip.context(false)
	entry := ctx.entryFor(f.Name)

	exprAt := make(map[int]Expr)   // store body index → address expression
	byExpr := make(map[Expr][]int) // address expression → store indices
	ctx.walkAvail(f, entry, func(i int, st ckSet, env *regEnv) {
		in := f.Body[i]
		if in.Pseudo != asm.PNone || in.Op != isa.SW {
			return
		}
		e := env.resolve(in.RS1, in.Imm)
		exprAt[i] = e
		byExpr[e] = append(byExpr[e], i)
		if st.has(e) {
			fp.Class[i] = CheckElided
		}
	})

	// Dependence-map emission. Indices are pre-patch here; the patcher
	// remaps them onto the patched body.
	indices := make([]int, 0, len(exprAt))
	for i := range exprAt {
		indices = append(indices, i)
	}
	sortInts(indices)
	for _, i := range indices {
		e := exprAt[i]
		switch fp.Class[i] {
		case CheckElided:
			site := DepSite{Func: f.Name, Index: i, Class: SiteElided, Expr: e.String()}
			for _, j := range byExpr[e] {
				if j != i {
					site.Deps = append(site.Deps, Dep{Kind: DepCheck, Func: f.Name, Index: j})
				}
			}
			if entry.has(e) {
				site.Deps = append(site.Deps, Dep{Kind: DepEntry, Func: f.Name})
			}
			for _, callee := range ip.CallGraph.Callees[f.Name] {
				if s := ip.Summaries[callee]; s != nil && !s.Writes.writesExpr(e, fi) {
					site.Deps = append(site.Deps, Dep{Kind: DepSummary, Func: callee})
				}
			}
			deps.Sites = append(deps.Sites, site)
		case CheckFast:
			site := DepSite{Func: f.Name, Index: i, Class: SiteFast, Expr: e.String()}
			if at, ok := fp.fastCover[i]; ok {
				site.Deps = append(site.Deps, Dep{Kind: DepCheck, Func: f.Name, Index: at})
			}
			deps.Sites = append(deps.Sites, site)
		}
	}
	for _, h := range fp.Hoists {
		for _, e := range h.Exprs {
			deps.Sites = append(deps.Sites, DepSite{
				Func: f.Name, Index: h.InsertAt, Class: SiteHoist, Expr: e.String(),
			})
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func planFunc(f *asm.Func) *FuncPlan {
	g := BuildCFG(f)
	fp := &FuncPlan{CFG: g, Class: make(map[int]CheckClass), fastCover: make(map[int]int)}
	if g.Irregular || len(g.Blocks) == 0 {
		return fp // no optimization for control flow we cannot model
	}

	in, _ := checkDataflow(g)

	// Final walk: classify elidable stores and record every store's
	// resolved expression for the hoisting pass.
	type storeInfo struct {
		idx   int
		block int
		e     Expr
	}
	var stores []storeInfo
	for _, b := range g.Blocks {
		st := in[b.ID]
		var env regEnv
		for i := b.Start; i < b.End; i++ {
			inst := f.Body[i]
			if inst.Pseudo == asm.PNone && inst.Op == isa.SW {
				e := env.resolve(inst.RS1, inst.Imm)
				if st.known && st.e == e {
					fp.Class[i] = CheckElided
				} else {
					stores = append(stores, storeInfo{idx: i, block: b.ID, e: e})
				}
			}
			st, env = stepPlan(st, env, inst)
		}
	}

	// Loop hoisting: for each non-elided store, find the outermost safe
	// loop in which its address is invariant.
	loops := g.NaturalLoops()          // outermost first
	hoistExprs := make(map[int][]Expr) // loop index → deduped exprs
	for _, s := range stores {
		for li, l := range loops {
			if !l.Blocks[s.block] || !hoistSafe(g, f, l) {
				continue
			}
			if !loopInvariant(g, f, l, s.e) {
				continue
			}
			exprs := hoistExprs[li]
			found := false
			for _, e := range exprs {
				if e == s.e {
					found = true
					break
				}
			}
			if !found {
				if len(exprs) >= maxHoistsPerLoop {
					continue // this loop is full; try an inner one
				}
				hoistExprs[li] = append(exprs, s.e)
			}
			fp.Class[s.idx] = CheckFast
			fp.fastCover[s.idx] = g.Blocks[l.Header].Start
			break // outermost qualifying loop wins
		}
	}

	for li, l := range loops {
		exprs := hoistExprs[li]
		if len(exprs) == 0 {
			continue
		}
		fp.Hoists = append(fp.Hoists, Hoist{
			InsertAt: g.Blocks[l.Header].Start,
			Exprs:    exprs,
		})
	}
	// Sort hoists by insertion point (stable small-n insertion sort).
	for i := 1; i < len(fp.Hoists); i++ {
		for j := i; j > 0 && fp.Hoists[j].InsertAt < fp.Hoists[j-1].InsertAt; j-- {
			fp.Hoists[j], fp.Hoists[j-1] = fp.Hoists[j-1], fp.Hoists[j]
		}
	}
	return fp
}

// stepPlan advances the most-recent-check state across one instruction
// of an UNPATCHED program, where every store doubles as the check the
// patcher will insert for it.
func stepPlan(st ckState, env regEnv, inst asm.Inst) (ckState, regEnv) {
	if isBarrier(inst) {
		applyEnv(&env, inst)
		return stateBottom, env
	}
	if inst.Pseudo == asm.PNone && inst.Op == isa.SW {
		e := env.resolve(inst.RS1, inst.Imm)
		applyEnv(&env, inst)
		return ckState{known: true, e: e}, env
	}
	killState(&st, inst)
	applyEnv(&env, inst)
	return st, env
}

// checkDataflow runs the forward most-recent-check dataflow to a fixed
// point and returns the IN and OUT facts per block. It powers the
// intraprocedural planner; the verifier and the interprocedural planner
// use the set-lattice dataflow in interproc.go instead.
func checkDataflow(g *CFG) (in, out []ckState) {
	nb := len(g.Blocks)
	in = make([]ckState, nb)
	out = make([]ckState, nb)
	for i := range in {
		in[i] = ckState{top: true}
		out[i] = ckState{top: true}
	}
	in[0] = stateBottom

	transfer := func(b *Block, st ckState) ckState {
		var env regEnv
		for i := b.Start; i < b.End; i++ {
			st, env = stepPlan(st, env, g.Fn.Body[i])
		}
		return st
	}

	if g.Irregular {
		// Control flow we cannot model: assume any block can be entered
		// with no facts at all.
		for i := range in {
			in[i] = stateBottom
			out[i] = transfer(g.Blocks[i], stateBottom)
		}
		return in, out
	}

	for changed := true; changed; {
		changed = false
		for _, b := range g.rpo {
			blk := g.Blocks[b]
			st := in[b]
			if b != 0 {
				st = ckState{top: true}
				for _, p := range blk.Preds {
					st = meet(st, out[p])
				}
				if st != in[b] {
					in[b] = st
					changed = true
				}
			}
			no := transfer(blk, st)
			if no != out[b] {
				out[b] = no
				changed = true
			}
		}
	}
	return in, out
}

// hoistSafe reports whether preliminary checks may be inserted before
// the loop's header: every branch to the header must come from inside
// the loop (so the insertion is crossed exactly once, on fall-through
// entry), and the fall-through predecessor must be outside the loop.
func hoistSafe(g *CFG, f *asm.Func, l *Loop) bool {
	h := g.Blocks[l.Header].Start
	// Collect the labels that resolve to the header index.
	headerLabels := make(map[string]bool)
	for name, idx := range f.Labels {
		if idx == h {
			headerLabels[name] = true
		}
	}
	for i, in := range f.Body {
		var label string
		switch {
		case in.Pseudo == asm.PJmp:
			label = in.Label
		case in.Pseudo == asm.PNone && isa.IsBranch(in.Op):
			label = in.Label
		default:
			continue
		}
		if label == "" || !headerLabels[label] {
			continue
		}
		if !l.Blocks[g.BlockOf[i]] {
			return false // entered by branching from outside the loop
		}
	}
	if h == 0 {
		return true // function entry is the preheader
	}
	// The fall-through predecessor must exist and lie outside the loop,
	// otherwise the preliminary checks would execute per iteration.
	prev := g.BlockOf[h-1]
	if l.Blocks[prev] {
		return false
	}
	switch kindOf(f.Body[h-1]) {
	case kindJump, kindRet, kindIrregular:
		return false // no fall-through entry: loop entered only by label
	}
	return true
}

// loopInvariant reports whether the address expression provably has the
// same value on loop entry and at every point inside the loop. Value
// forms (symbol/constant) are invariant by construction; register forms
// require the base register to have no definition inside the loop,
// where calls define everything the convention does not preserve.
func loopInvariant(g *CFG, f *asm.Func, l *Loop, e Expr) bool {
	if e.Kind != ERegister {
		return true
	}
	if e.Reg == isa.R0 {
		return true
	}
	for b := range l.Blocks {
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			in := f.Body[i]
			if kindOf(in) == kindCall || (in.Pseudo == asm.PNone && in.Op == isa.TRAP) {
				if !callPreserved(e.Reg) {
					return false
				}
				continue
			}
			for _, r := range defs(in) {
				if r == e.Reg {
					return false
				}
			}
		}
	}
	return true
}
