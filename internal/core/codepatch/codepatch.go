// Package codepatch implements the paper's CodePatch WMS strategy
// (§3.3, §7.1.4, Figure 6) — the strategy the paper concludes is "the
// most likely choice for providing efficient data breakpoints".
//
// At compile time the assembly is patched so that the target of every
// write instruction is checked: before each store, the patcher inserts
// the minimum two extra instructions the paper describes for SPARC —
// one to materialise the target address in an available register and
// one direct control transfer to the check subroutine:
//
//	addi at2, base, off     ; target address via an available register
//	jalr plink, r0, #check  ; call the WMS check routine (linking in a
//	                        ;  reserved register, so the sequence is
//	                        ;  legal even before the prologue has saved
//	                        ;  ra and never clobbers codegen registers)
//	sw   rd, off(base)      ; the original store
//
// The check routine lives at the very start of the text segment (so the
// 16-bit jalr immediate reaches it) and performs one SoftwareLookup per
// store. Unlike VirtualMemory and TrapPatch the store itself executes
// normally — no kernel involvement at all, which is what makes the
// strategy operating-system independent and cheap.
//
// # Static optimization (a non-nil plan)
//
// §9 of the paper proposes compile-time optimization of the inserted
// checks. Patching with an analysis.Plan implements it:
//
//   - Check elimination: a store dominated by a prior check of a
//     provably-equal address expression — with no intervening
//     redefinition of the base register and no intervening call — emits
//     no check at all. The assembler records the store's address in
//     Image.ElidedChecks; at run time the store-observation hook keeps
//     the semantics *identical* to an unoptimized patch (same
//     notification sequence, same hit/miss statistics), charging zero
//     cycles when the dominating check is still valid and falling back
//     to a full lookup after any monitor update.
//
//   - Loop hoisting: the paper's "preliminary check ... applied for
//     write instructions whose target is a loop-invariant memory
//     range". A preliminary check of each loop-invariant store target
//     is inserted in the loop preheader; the in-loop checks downgrade
//     to a fast stub entry that answers out of the preliminary-check
//     miss cache for the price of an inline compare.
//
// The optimized stub has three entries — full, fast, preliminary — each
// a one-word return so an unattached optimized image still runs.
package codepatch

import (
	"fmt"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/wms"
	"edb/internal/cpu"
	"edb/internal/isa"
	"edb/internal/kernel"
)

// CheckFuncName is the symbol of the injected check routine.
const CheckFuncName = "__wms_check"

// Stub-entry byte offsets from TextBase.
const (
	stubFullOff = 0
	stubFastOff = 4
	stubPreOff  = 8
)

// PatchResult reports what the patcher did.
type PatchResult struct {
	// Patched counts instrumented stores (stores that received a check;
	// elided stores are not included).
	Patched int
	// OriginalWords and PatchedWords give the text-size expansion the
	// paper estimates in §8 (12-15% for its benchmarks).
	OriginalWords, PatchedWords int

	// Optimize-mode statistics (zero for a plain patch).
	EliminatedChecks int // stores whose check was statically elided
	FastChecks       int // in-loop checks downgraded to the fast entry
	HoistedChecks    int // preliminary checks inserted in preheaders
	// EliminatedIntra is the elision count the intraprocedural baseline
	// achieves on the same program (the interproc ablation reference).
	EliminatedIntra int

	// DepMap is the dependence map of the optimized image, with indices
	// remapped onto the patched bodies: per elided/fast/hoisted site,
	// the static facts justifying it. analysis.VerifyPatchedWithDeps
	// validates it; the incremental re-patcher will consume it as its
	// invalidation index. Nil for unoptimized or intraprocedural
	// patches.
	DepMap *analysis.DepMap
}

// Expansion returns the fractional code-size increase.
func (r *PatchResult) Expansion() float64 {
	if r.OriginalWords == 0 {
		return 0
	}
	return float64(r.PatchedWords-r.OriginalWords) / float64(r.OriginalWords)
}

// Patch instruments every store in the program and injects the check
// routine as the program's first function. The program is mutated in
// place (compile a fresh program per strategy).
//
// A nil plan gives plain CodePatch: every store gets a full check and
// the stub is one word. A non-nil plan, which must come from
// analysis.PlanChecks (or PlanChecksWithOptions) over p as it stands,
// gives the optimised patch: elided, fast and hoisted checks as the
// plan classifies them, a three-entry stub, and the plan's dependence
// map remapped onto the patched bodies.
func Patch(p *asm.Program, plan *analysis.Plan) (*PatchResult, error) {
	if p.FindFunc(CheckFuncName) != nil {
		return nil, fmt.Errorf("codepatch: program already patched")
	}
	res := &PatchResult{}
	if plan != nil {
		res.EliminatedChecks = plan.EliminatedChecks
		res.FastChecks = plan.FastChecks
		res.HoistedChecks = plan.HoistedChecks
		res.EliminatedIntra = plan.EliminatedIntra
	}

	// Pre-patch → patched index maps, for dependence-map remapping.
	type hoistKey struct {
		at   int
		expr string
	}
	indexMaps := make(map[string][]int)
	hoistIdx := make(map[string]map[hoistKey]int)

	for _, f := range p.Funcs {
		res.OriginalWords += asm.BodyWords(f.Body)
		var fp *analysis.FuncPlan
		if plan != nil {
			fp = plan.Funcs[f.Name]
		}
		// Preheader insertions by body index.
		hoistAt := make(map[int][]analysis.Expr)
		if fp != nil {
			for _, h := range fp.Hoists {
				hoistAt[h.InsertAt] = h.Exprs
			}
		}

		var out []asm.Inst
		// indexMap[i] is the new index of old body index i; one extra
		// entry maps the end-of-body position for trailing labels.
		indexMap := make([]int, len(f.Body)+1)
		for i := range f.Body {
			// Preliminary checks go before the loop header's label
			// position, so only fall-through entry — never the back
			// edge — executes them.
			for _, e := range hoistAt[i] {
				if hoistIdx[f.Name] == nil {
					hoistIdx[f.Name] = make(map[hoistKey]int)
				}
				hoistIdx[f.Name][hoistKey{at: i, expr: e.String()}] = len(out)
				out = append(out,
					materialiseExpr(e),
					asm.I(isa.JALR, isa.PLink, isa.R0, int32(arch.TextBase)+stubPreOff),
				)
			}
			indexMap[i] = len(out)
			in := f.Body[i]
			if in.Pseudo == asm.PNone && in.Op == isa.SW {
				switch {
				case fp.ClassOf(i) == analysis.CheckElided:
					// No check: a dominating equal-address check covers
					// this store. Mark it so the assembler records the
					// address for the runtime.
					in.CheckElided = true
				default:
					off := int32(stubFullOff)
					if fp.ClassOf(i) == analysis.CheckFast {
						off = stubFastOff
					}
					// Materialise the target address, then call the
					// checker.
					out = append(out,
						asm.I(isa.ADDI, isa.AT2, in.RS1, in.Imm),
						asm.I(isa.JALR, isa.PLink, isa.R0, int32(arch.TextBase)+off),
					)
					res.Patched++
				}
			}
			out = append(out, in)
		}
		indexMap[len(f.Body)] = len(out)
		for label, idx := range f.Labels {
			f.Labels[label] = indexMap[idx]
		}
		indexMaps[f.Name] = indexMap
		f.Body = out
		res.PatchedWords += asm.BodyWords(out)
	}

	// Remap the plan's dependence map (pre-patch body indices) onto the
	// patched bodies: elided sites land on the store word, checked-store
	// sites and deps on their pair's first word, hoist sites on the
	// emitted preliminary pair for that expression.
	if plan != nil && plan.Deps != nil {
		dm := &analysis.DepMap{Sites: make([]analysis.DepSite, 0, len(plan.Deps.Sites))}
		for _, s := range plan.Deps.Sites {
			ns := s
			ns.Deps = append([]analysis.Dep(nil), s.Deps...)
			if s.Class == analysis.SiteHoist {
				ns.Index = hoistIdx[s.Func][hoistKey{at: s.Index, expr: s.Expr}]
			} else if im := indexMaps[s.Func]; s.Index < len(im) {
				ns.Index = im[s.Index]
			}
			for di, d := range ns.Deps {
				if d.Kind != analysis.DepCheck {
					continue
				}
				if s.Class == analysis.SiteFast {
					// A fast site's covering check is the hoisted
					// preliminary pair of the same expression.
					ns.Deps[di].Index = hoistIdx[d.Func][hoistKey{at: d.Index, expr: s.Expr}]
					continue
				}
				if im := indexMaps[d.Func]; d.Index < len(im) {
					ns.Deps[di].Index = im[d.Index]
				}
			}
			dm.Sites = append(dm.Sites, ns)
		}
		res.DepMap = dm
	}

	// Inject the check routine at the head of the function list so it
	// assembles at TextBase, reachable by the 16-bit jalr immediate.
	// Each stub word returns via the patch link register, so an
	// unattached patched image still runs correctly (checks become
	// no-ops). The optimized stub has three entries: full, fast,
	// preliminary.
	stubWords := 1
	if plan != nil {
		stubWords = 3
	}
	check := &asm.Func{Name: CheckFuncName, Labels: map[string]int{}}
	for k := 0; k < stubWords; k++ {
		check.Emit(asm.I(isa.JALR, isa.R0, isa.PLink, 0))
	}
	p.Funcs = append([]*asm.Func{check}, p.Funcs...)
	res.OriginalWords++ // count the stub once so expansion stays honest
	res.PatchedWords += stubWords
	return res, nil
}

// materialiseExpr builds the instruction that loads a preliminary-check
// address into AT2.
func materialiseExpr(e analysis.Expr) asm.Inst {
	switch e.Kind {
	case analysis.ESymbol:
		return asm.La(isa.AT2, e.Sym, int32(e.Off))
	case analysis.EConst:
		return asm.Li(isa.AT2, int32(e.Off))
	default:
		return asm.I(isa.ADDI, isa.AT2, e.Reg, int32(e.Off))
	}
}

// missCacheSize is the capacity of the preliminary-check miss cache
// (direct mapped).
const missCacheSize = 16

// Executed-check table entries: the runtime mirror of the static
// analysis' available-check facts. checkMiss records that the last
// executed check of an address found it unmonitored; checkHit that it
// was monitored. The whole table is flushed on every monitor update, so
// a surviving entry is a still-valid fact. The table subsumes the
// interprocedural fact set pointwise (it keeps every checked address,
// not just the ones the dataflow could prove survive), so any store the
// planner elides — intraprocedurally or across calls — replays for free
// when no update intervened.
const (
	checkMiss byte = 1
	checkHit  byte = 2
)

// WMS is a CodePatch write monitor service attached to one machine
// running a patched image.
type WMS struct {
	m      *kernel.Machine
	svc    *wms.Service
	notify wms.Notifier

	updCost    uint64
	lookupCost uint64
	fastCost   uint64

	pending    wms.Notification
	hasPending bool

	// Checks counts executed check calls (every executed store whose
	// check was not statically elided).
	Checks uint64

	// incremental selects the incremental-invalidation policy for
	// monitor updates (see InstallMonitor): instead of flushing every
	// runtime fact table, only the facts a given update can actually
	// falsify are dropped. Off by default — the full flush is the
	// from-scratch re-patch oracle the differential tests compare
	// against.
	incremental bool
	// FactsDropped / FactsKept count executed-check facts invalidated
	// and retained across incremental monitor updates (both zero under
	// the full-flush policy, which drops everything unconditionally).
	FactsDropped uint64
	FactsKept    uint64

	// Static-optimization runtime state.
	elided    map[arch.Addr]bool // patched-image store addrs with no check
	checked   map[arch.Addr]byte // executed-check table (checkMiss/checkHit)
	missCache [missCacheSize]struct {
		addr  arch.Addr
		valid bool
	}
	// Elided counts executed stores whose check was statically elided;
	// with ElideFallbacks the invariant
	//
	//	unoptimized.Checks == optimized.Checks + optimized.Elided
	//
	// holds for the same program input. ElideFallbacks counts elided
	// stores that could not be proven redundant at run time (a monitor
	// update intervened) and paid the full lookup; it is zero whenever
	// no monitors were installed or removed mid-run, which is how the
	// differential tests validate the static analysis. FastHits counts
	// fast-entry checks answered out of the preliminary-check miss
	// cache; PreChecks counts executed preliminary (hoisted) checks.
	Elided         uint64
	ElideFallbacks uint64
	FastHits       uint64
	PreChecks      uint64
}

// Attach wires the CodePatch WMS to a machine whose image was built from
// a program rewritten by Patch: it registers the check routine as a host
// function at the injected stub's entries.
func Attach(m *kernel.Machine, notify wms.Notifier) (*WMS, error) {
	fi, ok := m.Image.FuncBySym[CheckFuncName]
	if !ok {
		return nil, fmt.Errorf("codepatch: image has no %s routine (not patched?)", CheckFuncName)
	}
	entry := m.Image.Funcs[fi].Entry
	if entry != arch.TextBase {
		return nil, fmt.Errorf("codepatch: %s at %#x, must be first function", CheckFuncName, entry)
	}
	w := &WMS{
		m: m, notify: notify,
		updCost:    arch.MicrosToCycles(22),   // SoftwareUpdate_τ
		lookupCost: arch.MicrosToCycles(2.75), // SoftwareLookup_τ
		fastCost:   arch.MicrosToCycles(0.25), // inline compare-and-branch
		elided:     m.Image.ElidedChecks,
		checked:    make(map[arch.Addr]byte),
	}
	w.svc = wms.NewService(nil, nil)
	m.CPU.RegisterHostFunc(entry, w.check)
	stubWords := int((m.Image.Funcs[fi].End - entry) / arch.WordBytes)
	if stubWords >= 2 {
		m.CPU.RegisterHostFunc(entry+stubFastOff, w.checkFast)
	}
	if stubWords >= 3 {
		m.CPU.RegisterHostFunc(entry+stubPreOff, w.checkPre)
	}
	m.CPU.OnStore = w.onStore
	return w, nil
}

// InstallMonitor updates the software mapping. Any number of monitors
// is supported — the paper's decisive advantage over hardware.
func (w *WMS) InstallMonitor(ba, ea arch.Addr) error {
	if err := w.svc.InstallMonitor(ba, ea); err != nil {
		return err
	}
	w.invalidateForInstall(ba, ea)
	w.m.CPU.ChargeCycles(w.updCost)
	return nil
}

// RemoveMonitor updates the software mapping.
func (w *WMS) RemoveMonitor(ba, ea arch.Addr) error {
	if err := w.svc.RemoveMonitor(ba, ea); err != nil {
		return err
	}
	w.invalidateForRemove(ba, ea)
	w.m.CPU.ChargeCycles(w.updCost)
	return nil
}

// SetIncremental selects the invalidation policy for subsequent monitor
// updates. Off (the default), every update flushes every runtime fact
// table — behaviourally identical to a from-scratch re-patch, which is
// what makes it the differential oracle. On, updates drop only the
// facts they can actually falsify (see invalidateForInstall /
// invalidateForRemove); the re-patch-storm differential asserts the two
// policies produce bit-identical output, stores, notifications and
// monitor statistics.
func (w *WMS) SetIncremental(on bool) { w.incremental = on }

// wordIntersects reports whether the word [a, a+4) intersects [ba, ea).
func wordIntersects(a, ba, ea arch.Addr) bool {
	return a < ea && a+arch.WordBytes > ba
}

// invalidateForInstall drops the runtime facts an InstallMonitor(ba, ea)
// can falsify. Installing a monitor can only turn lookup misses into
// hits, so:
//
//   - checkMiss facts whose word intersects the new range are dropped;
//     checkMiss facts elsewhere, and every checkHit fact, remain true
//     statements about their address and are kept.
//   - miss-cache entries (guaranteed-miss facts) intersecting the range
//     are dropped; the rest stay valid.
func (w *WMS) invalidateForInstall(ba, ea arch.Addr) {
	if !w.incremental {
		w.invalidateCaches()
		return
	}
	w.dropFacts(checkMiss, ba, ea)
	for i := range w.missCache {
		e := &w.missCache[i]
		if e.valid && wordIntersects(e.addr, ba, ea) {
			e.valid = false
		}
	}
}

// invalidateForRemove drops the runtime facts a RemoveMonitor(ba, ea)
// can falsify — the mirror image of invalidateForInstall. Removing a
// monitor can only turn hits into misses, so checkHit facts intersecting
// the removed range are dropped while every checkMiss fact and the whole
// miss cache (guaranteed-miss facts cannot be falsified by a removal)
// survive.
func (w *WMS) invalidateForRemove(ba, ea arch.Addr) {
	if !w.incremental {
		w.invalidateCaches()
		return
	}
	w.dropFacts(checkHit, ba, ea)
}

// dropFacts drops the executed-check facts with outcome v whose word
// intersects [ba, ea), and counts every other fact as kept. It visits
// only the addresses that can intersect the range — every byte address
// from ba-3 on, since a check may record an unaligned address — or
// scans the table when that is fewer.
func (w *WMS) dropFacts(v byte, ba, ea arch.Addr) {
	n := len(w.checked)
	lo := ba - min(ba, arch.WordBytes-1)
	if uint64(ea-lo) < uint64(n) {
		for a := lo; a < ea; a++ {
			if w.checked[a] == v && wordIntersects(a, ba, ea) {
				delete(w.checked, a)
			}
		}
	} else {
		for a, got := range w.checked {
			if got == v && wordIntersects(a, ba, ea) {
				delete(w.checked, a)
			}
		}
	}
	dropped := n - len(w.checked)
	w.FactsDropped += uint64(dropped)
	w.FactsKept += uint64(n - dropped)
}

// check is the host-implemented body of __wms_check, the stub's first
// (full) entry. The target address arrives in AT2 and the store's own
// address in PLink (the link register of the check call). The store
// has not executed yet, so a hit is recorded as pending and the
// notification is delivered from the store observation hook — the WMS
// definition requires notification *after* the write has succeeded
// (§1: this distinguishes write monitors from write barriers).
func (w *WMS) check(c *cpu.CPU) error {
	w.Checks++
	c.ChargeCycles(w.lookupCost)
	addr := arch.Addr(c.Regs[isa.AT2])
	pc := arch.Addr(c.Regs[isa.PLink]) // the patched store's address
	hit := w.svc.CheckWrite(addr, addr+arch.WordBytes, pc)
	if hit {
		w.pending = wms.Notification{BA: addr, EA: addr + arch.WordBytes, PC: pc}
		w.hasPending = true
	}
	w.setLastCheck(addr, hit)
	return nil
}

// checkFast is the stub's second entry, used by in-loop checks covered
// by a hoisted preliminary check: a hit in the preliminary-check miss
// cache is a guaranteed monitor miss for the price of an inline
// compare; anything else takes the full path.
func (w *WMS) checkFast(c *cpu.CPU) error {
	addr := arch.Addr(c.Regs[isa.AT2])
	if e := &w.missCache[cacheSlot(addr)]; e.valid && e.addr == addr {
		w.Checks++
		w.FastHits++
		c.ChargeCycles(w.fastCost)
		pc := arch.Addr(c.Regs[isa.PLink])
		// CheckWrite keeps hit/miss statistics identical to an
		// unoptimized run; the cache guarantees a miss (it is flushed on
		// every monitor update), but route a hit through anyway so a
		// notification can never be lost.
		if w.svc.CheckWrite(addr, addr+arch.WordBytes, pc) {
			w.pending = wms.Notification{BA: addr, EA: addr + arch.WordBytes, PC: pc}
			w.hasPending = true
			w.setLastCheck(addr, true)
			return nil
		}
		w.setLastCheck(addr, false)
		return nil
	}
	return w.check(c)
}

// checkPre is the stub's third entry: the hoisted preliminary check. It
// warms the miss cache for the loop's fast checks but never notifies,
// never counts as a per-store check, and never establishes a
// most-recent-check fact — it may run for a store that this loop entry
// never executes.
func (w *WMS) checkPre(c *cpu.CPU) error {
	w.PreChecks++
	c.ChargeCycles(w.lookupCost)
	addr := arch.Addr(c.Regs[isa.AT2])
	hit := w.svc.Lookup(addr, addr+arch.WordBytes)
	if !hit {
		e := &w.missCache[cacheSlot(addr)]
		e.addr, e.valid = addr, true
	}
	// The lookup's outcome is a valid executed-check fact for the
	// address even though a preliminary check never notifies.
	w.setLastCheck(addr, hit)
	return nil
}

func cacheSlot(addr arch.Addr) int {
	return int(addr>>2) & (missCacheSize - 1)
}

// setLastCheck records an executed check's outcome in the
// executed-check table.
func (w *WMS) setLastCheck(addr arch.Addr, hit bool) {
	if hit {
		w.checked[addr] = checkHit
	} else {
		w.checked[addr] = checkMiss
	}
}

// onStore delivers the pending notification once the checked store has
// completed, and plays the check of statically elided stores: their
// classification still counts (and notifies) exactly as an unoptimized
// check would, but a store whose address has a still-valid
// executed-check entry that missed charges nothing — the static
// analysis proved the lookup redundant, and the runtime validated it.
func (w *WMS) onStore(ba, ea, pc arch.Addr) {
	if w.hasPending {
		w.hasPending = false
		if w.notify != nil {
			w.notify(w.pending)
		}
		return
	}
	if len(w.elided) == 0 || !w.elided[pc] {
		return
	}
	w.Elided++
	switch w.checked[ba] {
	case checkMiss:
		// Proven redundant: the dominating check found this address
		// unmonitored and no monitor update intervened. Free.
	case checkHit:
		// The dominating check hit: this store notifies too, which in a
		// real deployment means the elided site's inline guard branches
		// back into the check routine. Full price.
		w.m.CPU.ChargeCycles(w.lookupCost)
	default:
		// A monitor update invalidated the fact (or the analysis was
		// wrong — the differential tests assert this never happens
		// without an update): full price, full semantics.
		w.ElideFallbacks++
		w.m.CPU.ChargeCycles(w.lookupCost)
	}
	hit := w.svc.CheckWrite(ba, ea, pc)
	w.setLastCheck(ba, hit)
	if hit && w.notify != nil {
		w.notify(wms.Notification{BA: ba, EA: ea, PC: pc})
	}
}

// invalidateCaches is called on every monitor update: the
// executed-check table and the preliminary-check miss cache are both
// conservatively discarded.
func (w *WMS) invalidateCaches() {
	clear(w.checked)
	for i := range w.missCache {
		w.missCache[i].valid = false
	}
}

// Stats returns the activity counters.
func (w *WMS) Stats() wms.Stats { return w.svc.Stats() }
