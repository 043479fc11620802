package codepatch

// Incremental (runtime) re-patching. The paper's CodePatch strategy
// patches ahead of time; attaching a debugger to a live service — the
// scenario edb-serve embodies — would otherwise force a full
// stop-and-re-patch: recompile, re-verify, reassemble, rebuild the
// machine, replay. Image makes the patched artifact a live object
// instead:
//
//   - InstallMonitor/RemoveMonitor mutate the watch set mid-run under
//     the incremental invalidation policy (see SetIncremental): only
//     the runtime facts the update can falsify are dropped, and the
//     tiered full/fast/preliminary stub machinery already present at
//     every store covers whatever the dropped facts no longer prove.
//   - RewriteStore mutates a store site in the live text (the
//     self-modifying-code case of Maebe & De Bosschere), keeping the
//     inserted check pair in lockstep, then uses the PR 7 dependence
//     map (DepMap.DependentsOf) to demote exactly the optimizer
//     decisions the mutation can invalidate — elided checks fall back
//     to the dynamic store-observation path, fast-stub calls are
//     flipped to the full entry in place — and re-proves soundness
//     with analysis.VerifyRepatched after every step.
//
// The re-patch-storm differential (differential_test.go) is the proof
// that none of this changes observable behaviour: incremental and
// from-scratch invalidation must agree bit-identically on output,
// stores, notification sequences and monitor statistics.

import (
	"errors"
	"fmt"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/wms"
	"edb/internal/isa"
	"edb/internal/kernel"
)

// Typed re-patching failures.
var (
	// ErrNoSuchStore: RewriteStore named a function or store ordinal
	// that does not exist.
	ErrNoSuchStore = errors.New("codepatch: no such store")
	// ErrImmOverflow: the requested offset delta would not fit the
	// 16-bit immediate of the store (or its check pair's address
	// materialisation).
	ErrImmOverflow = errors.New("codepatch: rewritten offset overflows imm16")
	// ErrUnsound: a re-patch step failed re-verification. The image is
	// left as-is; treat it as poisoned.
	ErrUnsound = errors.New("codepatch: re-patch failed soundness re-verification")
)

// RepatchStats counts what the incremental engine did.
type RepatchStats struct {
	Installs int // incremental monitor installs
	Removes  int // incremental monitor removals
	Rewrites int // store sites rewritten in live text
	// Demoted counts elided sites whose static justification a rewrite
	// invalidated; they are dropped from the dependence map and covered
	// dynamically by the store-observation fallback from then on.
	Demoted int
	// StubFlips counts fast-stub check calls flipped to the full entry
	// in live text because their covering preliminary check was
	// invalidated.
	StubFlips int
	// HoistsDropped counts hoisted preliminary-check sites dropped from
	// the dependence map (the emitted pair stays — a preliminary check
	// of any address is a sound fact — it just no longer justifies
	// anything).
	HoistsDropped int
	// WordsRewritten counts text words written in place, the incremental
	// analogue of PatchResult.PatchedWords.
	WordsRewritten int
}

// Image is a live patched image under incremental re-patching control:
// the patched program, its machine, and the attached WMS, plus the
// working dependence-map state the engine consumes as decisions are
// invalidated.
type Image struct {
	Prog *asm.Program
	Res  *PatchResult
	M    *kernel.Machine
	W    *WMS

	layout  [][]arch.Addr  // layout[fi][i] = text address of Prog.Funcs[fi].Body[i]
	fnIdx   map[string]int // function name → index in Prog.Funcs
	dm      *analysis.DepMap
	demoted map[analysis.SiteRef]bool

	Stats RepatchStats
}

// BuildImage compiles the full pipeline — patch with plan (nil for
// plain CodePatch), verify, assemble, machine, attach — and returns the
// live image with the incremental invalidation policy enabled. The
// program is mutated in place, exactly as Patch documents.
func BuildImage(p *asm.Program, plan *analysis.Plan, pageSize int, notify wms.Notifier) (*Image, error) {
	res, err := Patch(p, plan)
	if err != nil {
		return nil, err
	}
	if v := analysis.VerifyPatchedWithDeps(p, res.DepMap); len(v) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrUnsound, v[0])
	}
	img, err := asm.Assemble(p)
	if err != nil {
		return nil, err
	}
	m, err := kernel.NewMachine(img, pageSize)
	if err != nil {
		return nil, err
	}
	w, err := Attach(m, notify)
	if err != nil {
		return nil, err
	}
	w.SetIncremental(true)
	return NewImage(p, res, m, w), nil
}

// NewImage wraps an already-built (program, result, machine, WMS)
// quadruple — the path for callers that assembled the machine
// themselves (the differential tests, debug.Session). It does not
// change the WMS invalidation policy.
func NewImage(p *asm.Program, res *PatchResult, m *kernel.Machine, w *WMS) *Image {
	i := &Image{
		Prog:    p,
		Res:     res,
		M:       m,
		W:       w,
		layout:  asm.LayoutAddrs(p),
		fnIdx:   make(map[string]int, len(p.Funcs)),
		demoted: make(map[analysis.SiteRef]bool),
	}
	for fi, f := range p.Funcs {
		i.fnIdx[f.Name] = fi
	}
	if res != nil && res.DepMap != nil {
		// Working copy: demotion drops sites destructively, and the
		// caller's PatchResult must keep reporting what the patcher did.
		i.dm = &analysis.DepMap{Sites: append([]analysis.DepSite(nil), res.DepMap.Sites...)}
	}
	return i
}

// DepMap returns the engine's working dependence map: the original map
// minus every site demoted so far. Nil for unoptimized or
// intraprocedural images.
func (i *Image) DepMap() *analysis.DepMap { return i.dm }

// InstallMonitor grows the live watch set. Under the incremental policy
// this is the whole point of the engine: no re-patch, no flush of
// still-valid facts — the stub machinery at every store picks up the
// new range on its next check.
func (i *Image) InstallMonitor(ba, ea arch.Addr) error {
	if err := i.W.InstallMonitor(ba, ea); err != nil {
		return err
	}
	i.Stats.Installs++
	return nil
}

// RemoveMonitor shrinks the live watch set.
func (i *Image) RemoveMonitor(ba, ea arch.Addr) error {
	if err := i.W.RemoveMonitor(ba, ea); err != nil {
		return err
	}
	i.Stats.Removes++
	return nil
}

// Verify re-proves the image sound under its current dependence map and
// demoted set. The engine calls it after every rewrite; tests call it
// directly to assert the incremental state never drifts out of proof.
func (i *Image) Verify() []analysis.Violation {
	return analysis.VerifyRepatched(i.Prog, i.dm, i.demoted)
}

// storeIndex returns the body index of the ordinal-th non-implicit
// store of f (patched body order), or -1.
func storeIndex(f *asm.Func, ordinal int) int {
	n := 0
	for idx, in := range f.Body {
		if in.Pseudo == asm.PNone && in.Op == isa.SW && !in.Implicit {
			if n == ordinal {
				return idx
			}
			n++
		}
	}
	return -1
}

// pairIndex returns the body index of the ADDI of the check pair
// guarding the store at j, or -1 if the store is unpaired (elided).
func pairIndex(f *asm.Func, j int) int {
	if j < 2 {
		return -1
	}
	call, addi := f.Body[j-1], f.Body[j-2]
	if call.Pseudo != asm.PNone || call.Op != isa.JALR || call.RD != isa.PLink || call.RS1 != isa.R0 {
		return -1
	}
	imm := call.Imm
	if imm != int32(arch.TextBase)+stubFullOff && imm != int32(arch.TextBase)+stubFastOff {
		return -1
	}
	if addi.Pseudo != asm.PNone || addi.Op != isa.ADDI || addi.RD != isa.AT2 {
		return -1
	}
	return j - 2
}

// writeInst re-encodes the (single-word, non-pseudo) instruction at
// body index idx of function fi into the live text.
func (i *Image) writeInst(fi, idx int) error {
	in := i.Prog.Funcs[fi].Body[idx]
	if in.Pseudo != asm.PNone || in.Words() != 1 {
		return fmt.Errorf("codepatch: cannot rewrite multi-word or pseudo instruction %s@%d", i.Prog.Funcs[fi].Name, idx)
	}
	w := isa.Encode(isa.Inst{Op: in.Op, RD: in.RD, RS1: in.RS1, RS2: in.RS2, Imm: in.Imm})
	if err := i.M.Mem.KernelWriteWord(i.layout[fi][idx], arch.Word(w)); err != nil {
		return err
	}
	i.Stats.WordsRewritten++
	return nil
}

// RewriteStore mutates the ordinal-th non-implicit store of fn in the
// live text, adding deltaOff to its base-register offset — the minimal
// self-modifying-code move a JIT or code patcher makes. The store's
// check pair (if any) is rewritten in lockstep so the checked address
// stays the store's target; then every optimizer decision that depends
// on fn (DepMap.DependentsOf) is demoted:
//
//   - elided sites lose their static justification and join the
//     demoted set — the store-observation hook's unconditional
//     CheckWrite already covers them dynamically, so semantics never
//     depended on the proof, only the zero-cost replay did;
//   - fast-stub calls are flipped to the full entry in live text (their
//     covering preliminary check may now check a different address);
//   - hoisted preliminary pairs are dropped from the map but left in
//     the text (a preliminary check is a sound fact for any address).
//
// Finally the whole image is re-proved with VerifyRepatched; a
// verification failure returns ErrUnsound and the differential suite
// treats it as a bug, not a recoverable condition.
func (i *Image) RewriteStore(fn string, ordinal int, deltaOff int32) error {
	fi, ok := i.fnIdx[fn]
	if !ok {
		return fmt.Errorf("%w: function %q", ErrNoSuchStore, fn)
	}
	f := i.Prog.Funcs[fi]
	j := storeIndex(f, ordinal)
	if j < 0 {
		return fmt.Errorf("%w: %s store #%d", ErrNoSuchStore, fn, ordinal)
	}
	pj := pairIndex(f, j)

	newImm := f.Body[j].Imm + deltaOff
	if !isa.FitsImm16(newImm) {
		return fmt.Errorf("%w: %s store #%d offset %d", ErrImmOverflow, fn, ordinal, newImm)
	}
	if pj >= 0 && !isa.FitsImm16(f.Body[pj].Imm+deltaOff) {
		return fmt.Errorf("%w: %s store #%d pair offset", ErrImmOverflow, fn, ordinal)
	}

	// Mutate program and live text in lockstep: offset-only rewrites
	// keep every instruction one word, so the layout is unchanged and
	// KernelWriteWord (kernel privilege bypasses the text segment's
	// write protection) is all it takes.
	f.Body[j].Imm = newImm
	if err := i.writeInst(fi, j); err != nil {
		return err
	}
	if pj >= 0 {
		f.Body[pj].Imm += deltaOff
		if err := i.writeInst(fi, pj); err != nil {
			return err
		}
	}
	i.Stats.Rewrites++

	i.demoteDependents(fn)

	if v := i.Verify(); len(v) > 0 {
		return fmt.Errorf("%w: %v", ErrUnsound, v[0])
	}
	return nil
}

// demoteDependents invalidates every optimizer decision whose static
// justification a rewrite of fn's stores can undermine. With a
// dependence map the set is DependentsOf(fn) — sites in fn or naming fn
// in a dep — widened by every site carrying a summary or entry dep:
// write summaries merge callee writes bottom-up over the call graph and
// entry sets flow top-down through call sites, so those two fact kinds
// can transitively reach fn from any function; demoting them all is the
// sound over-approximation that does not require the engine to carry a
// call graph. Purely intraprocedural check deps in other functions
// survive — a rewrite in fn cannot change another function's code or
// its in-function dominance facts. Without a dependence map
// (unoptimized or intraprocedural images) it conservatively demotes
// every elided store in fn — calls are optimization fences
// intraprocedurally, so no site outside fn can depend on it.
func (i *Image) demoteDependents(fn string) {
	if i.dm == nil {
		fi := i.fnIdx[fn]
		for idx, in := range i.Prog.Funcs[fi].Body {
			if in.Pseudo == asm.PNone && in.Op == isa.SW && in.CheckElided {
				i.demote(analysis.SiteRef{Func: fn, Index: idx})
			}
		}
		return
	}
	affected := append([]analysis.DepSite(nil), i.dm.DependentsOf(fn)...)
	for _, s := range i.dm.Sites {
		if s.Func == fn {
			continue // already in DependentsOf(fn)
		}
		for _, d := range s.Deps {
			if d.Kind == analysis.DepSummary || d.Kind == analysis.DepEntry {
				affected = append(affected, s)
				break
			}
		}
	}
	for _, s := range affected {
		ref := s.Ref()
		switch s.Class {
		case analysis.SiteElided:
			i.demote(ref)
			i.dm.Drop(ref)
		case analysis.SiteFast:
			i.flipFastToFull(ref)
			i.dm.Drop(ref)
		case analysis.SiteHoist:
			if i.dm.Drop(ref) {
				i.Stats.HoistsDropped++
			}
		}
	}
}

func (i *Image) demote(ref analysis.SiteRef) {
	if !i.demoted[ref] {
		i.demoted[ref] = true
		i.Stats.Demoted++
	}
}

// flipFastToFull rewrites a fast-stub check call (pair first word at
// ref.Index, JALR at ref.Index+1) to target the full entry, in both the
// program and the live text.
func (i *Image) flipFastToFull(ref analysis.SiteRef) {
	fi, ok := i.fnIdx[ref.Func]
	if !ok {
		return
	}
	f := i.Prog.Funcs[fi]
	cj := ref.Index + 1
	if cj >= len(f.Body) {
		return
	}
	call := &f.Body[cj]
	if call.Pseudo != asm.PNone || call.Op != isa.JALR || call.Imm != int32(arch.TextBase)+stubFastOff {
		return // already full (or not a pair — a dropped site re-listed)
	}
	call.Imm = int32(arch.TextBase) + stubFullOff
	if err := i.writeInst(fi, cj); err == nil {
		i.Stats.StubFlips++
	}
}
