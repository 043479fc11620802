// Package tracer implements phase 1 of the paper's experiment (Figure
// 1): it observes one run of a debuggee on the simulated machine and
// produces the program event trace of §6 — InstallMonitorEvent /
// RemoveMonitorEvent for every program object any monitor session could
// select, and WriteEvent for every explicit store.
//
// Faithful to the paper:
//
//   - Write monitors for automatic variables are installed and removed
//     on function boundaries.
//   - System calls, the standard library (our kernel services), and
//     implicit writes (register spills, saved RA/FP) do not appear in
//     the trace.
//   - Heap objects keep their identity across realloc.
//   - Each heap object records the functions executing in whose dynamic
//     context it was allocated (for AllHeapInFunc sessions).
//
// Observation is host-side and free: it does not perturb the debuggee's
// cycle clock, so the traced run doubles as the base-time measurement.
package tracer

import (
	"fmt"
	"sort"

	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/objects"
	"edb/internal/trace"
)

// frame is one shadow-stack entry. Its locals' ranges follow from fp,
// so the return recomputes the ranges the call installed.
type frame struct {
	funcIdx int // index into image Funcs, -1 if unknown
	fp      arch.Addr
}

// eventChunk is the size of the blocks a materialised run appends its
// events to; Run copies them into the trace once, at the end, instead
// of growing one slice by doubling while the program runs.
const eventChunk = 8192

type heapObj struct {
	id objects.ID
	r  arch.Range
}

// Tracer attaches to a machine and records its event trace.
type Tracer struct {
	m   *kernel.Machine
	img *asm.Image
	tr  *trace.Trace
	tab *objects.Table

	// localIDs[funcIdx][localIdx] is the object for that local variable.
	localIDs [][]objects.ID
	// staticInfo and globalInfo hold program-lifetime objects.
	lifetime []lifetimeObj

	heapByAddr map[arch.Addr]heapObj
	heapSeq    int

	// implicit[i] marks text word i as a compiler-bookkeeping store,
	// left out of the trace; entryFunc[i] is 1 + the index of the
	// function whose entry is text word i, or 0. Both replace map and
	// symbol lookups on every store and every call.
	implicit  []bool
	entryFunc []int32

	shadow    []frame
	truncated bool

	// events holds a materialised run's events: full chunks of
	// eventChunk, the last one filling.
	events [][]trace.Event

	// Monitor-churn schedule (see Churn): churn[churnNext] fires once
	// writeCount reaches its threshold.
	churn      []churnStep
	churnNext  int
	writeCount uint64

	// sink, when set (RunStreamed), receives every event as it
	// happens instead of t.tr.Events — the tracer never materialises
	// the trace. sinkErr is sticky: the first append failure stops
	// further writes and surfaces when the run ends.
	sink    *trace.Writer
	sinkErr error
}

type lifetimeObj struct {
	sym string
	id  objects.ID
	r   arch.Range
}

// churnStep is one armed ChurnPoint, resolved to a lifetime object.
type churnStep struct {
	at  uint64
	idx int // index into t.lifetime
}

// New attaches a tracer to the machine. It must be called before Run,
// and nothing else may use the machine's observation hooks.
func New(m *kernel.Machine, program string) *Tracer {
	t := &Tracer{
		m:          m,
		img:        m.Image,
		tab:        objects.NewTable(),
		heapByAddr: make(map[arch.Addr]heapObj),
		implicit:   make([]bool, len(m.Image.Text)),
		entryFunc:  make([]int32, len(m.Image.Text)),
	}
	t.tr = &trace.Trace{Program: program, Objects: t.tab}
	for pc := range t.img.ImplicitStores {
		if i, ok := t.textWord(pc); ok {
			t.implicit[i] = true
		}
	}
	for _, f := range t.img.Funcs {
		// An empty function has no entry word: a call to its address
		// enters the function laid out next.
		if i, ok := t.textWord(f.Entry); ok && f.End > f.Entry {
			t.entryFunc[i] = int32(t.img.FuncBySym[f.Name]) + 1
		}
	}

	// Pre-create objects for every local variable of every function.
	t.localIDs = make([][]objects.ID, len(t.img.Funcs))
	staticSet := make(map[string]bool)
	for fi := range t.img.Funcs {
		f := &t.img.Funcs[fi]
		ids := make([]objects.ID, len(f.Locals))
		for li, l := range f.Locals {
			ids[li] = t.tab.Add(objects.Object{
				Kind: objects.KindLocalAuto, Func: f.Name, Name: l.Name,
				SizeBytes: l.SizeWords * arch.WordBytes,
			})
		}
		t.localIDs[fi] = ids
		for _, sym := range f.Statics {
			staticSet[sym] = true
			r := t.img.Data[sym]
			id := t.tab.Add(objects.Object{
				Kind: objects.KindLocalStatic, Func: f.Name, Name: sym,
				SizeBytes: r.Len(),
			})
			t.lifetime = append(t.lifetime, lifetimeObj{sym: sym, id: id, r: r})
		}
	}
	// Globals: every data symbol that is not a function static, in
	// data-segment layout order. Iterating the Data map directly would
	// mint object IDs in a different order on every run (Go randomises
	// map iteration), making traces — and therefore session indices and
	// experiment reports — nondeterministic across runs.
	globals := make([]string, 0, len(t.img.Data))
	for sym := range t.img.Data {
		if !staticSet[sym] {
			globals = append(globals, sym)
		}
	}
	sort.Slice(globals, func(i, j int) bool {
		return t.img.Data[globals[i]].BA < t.img.Data[globals[j]].BA
	})
	for _, sym := range globals {
		r := t.img.Data[sym]
		id := t.tab.Add(objects.Object{
			Kind: objects.KindGlobal, Name: sym, SizeBytes: r.Len(),
		})
		t.lifetime = append(t.lifetime, lifetimeObj{sym: sym, id: id, r: r})
	}

	cpu := m.CPU
	// Label the core's fault-injection site with the program name so
	// chaos plans can target one benchmark's trace run deterministically.
	cpu.FaultKey = program
	cpu.OnStore = t.onStore
	cpu.OnCall = t.onCall
	cpu.OnRet = t.onRet
	m.OnAlloc = t.onAlloc
	m.OnFree = t.onFree
	m.OnRealloc = t.onRealloc
	return t
}

// textWord returns a's index among the image's text words, or false
// when a is not an aligned address inside the image's text.
func (t *Tracer) textWord(a arch.Addr) (int, bool) {
	i, ok := arch.TextWord(a)
	return i, ok && i < len(t.implicit)
}

func (t *Tracer) emit(e trace.Event) {
	if t.sink != nil {
		if t.sinkErr == nil {
			t.sinkErr = t.sink.Append(e)
		}
		return
	}
	n := len(t.events)
	if n == 0 || len(t.events[n-1]) == eventChunk {
		t.events = append(t.events, make([]trace.Event, 0, eventChunk))
		n++
	}
	t.events[n-1] = append(t.events[n-1], e)
}

// Objects exposes the tracer's object table — callers constructing a
// trace.Writer hand it the same table the streamed events reference.
// The table grows while the program runs (heap allocations mint
// objects), which is why the incremental writer defers its header to
// Close.
func (t *Tracer) Objects() *objects.Table { return t.tab }

func (t *Tracer) onStore(ba, ea, pc arch.Addr) {
	if i, ok := t.textWord(pc); ok && t.implicit[i] {
		return
	}
	t.emit(trace.Event{Kind: trace.EvWrite, BA: ba, EA: ea, PC: pc})
	t.writeCount++
	for t.churnNext < len(t.churn) && t.churn[t.churnNext].at <= t.writeCount {
		lo := t.lifetime[t.churn[t.churnNext].idx]
		t.emit(trace.Event{Kind: trace.EvRemove, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
		t.emit(trace.Event{Kind: trace.EvInstall, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
		t.churnNext++
	}
}

// ChurnPoint is one step of an opt-in monitor-churn schedule: once
// AfterWrites explicit stores have been traced, the program-lifetime
// monitor for the global or static Sym is removed and immediately
// re-installed in the event stream. This is the trace-level image of a
// live session mutation — a debugger (or an edb-serve tenant) dropping
// and re-adding a watchpoint mid-run — and it keys on the explicit
// store count, the same deterministic clock the re-patch storm uses, so
// two traces of the same program under the same schedule are identical.
type ChurnPoint struct {
	Sym         string
	AfterWrites uint64
}

// Churn arms a monitor-churn schedule. It must be called before Run or
// RunStreamed. Points may arrive in any order; they fire sorted by
// threshold (ties in the given order). The resulting trace stays
// balanced and exclusive — every remove is followed by an install of
// the same object and range — so replay in any engine (sequential,
// sharded, streamed) must agree bit-identically with the unchurned
// session semantics aside from the extra install/remove counts.
func (t *Tracer) Churn(points []ChurnPoint) error {
	byName := make(map[string]int, len(t.lifetime))
	for i, lo := range t.lifetime {
		byName[lo.sym] = i
	}
	steps := make([]churnStep, 0, len(points))
	for _, p := range points {
		idx, ok := byName[p.Sym]
		if !ok {
			return fmt.Errorf("tracer: churn point names unknown lifetime symbol %q", p.Sym)
		}
		if p.AfterWrites == 0 {
			return fmt.Errorf("tracer: churn point for %q has zero threshold", p.Sym)
		}
		steps = append(steps, churnStep{at: p.AfterWrites, idx: idx})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	t.churn = steps
	t.churnNext = 0
	return nil
}

// localRange is the range local li of function fi occupies in the
// frame whose pointer is fp.
func (t *Tracer) localRange(fi, li int, fp arch.Addr) arch.Range {
	l := &t.img.Funcs[fi].Locals[li]
	base := fp - arch.Addr(l.Offset)
	return arch.Range{BA: base, EA: base + arch.Addr(l.SizeWords*arch.WordBytes)}
}

func (t *Tracer) pushFunc(funcIdx int, fp arch.Addr) {
	if funcIdx >= 0 {
		for li, id := range t.localIDs[funcIdx] {
			r := t.localRange(funcIdx, li, fp)
			t.emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
		}
	}
	t.shadow = append(t.shadow, frame{funcIdx: funcIdx, fp: fp})
}

func (t *Tracer) onCall(target, pc arch.Addr) {
	funcIdx := -1
	if i, ok := t.textWord(target); ok {
		funcIdx = int(t.entryFunc[i]) - 1
	}
	// At the call instruction, SP has not yet been decremented by the
	// callee's prologue, so the callee's frame pointer will equal the
	// current SP.
	t.pushFunc(funcIdx, arch.Addr(t.m.CPU.Regs[isa.SP]))
}

func (t *Tracer) onRet(pc arch.Addr) {
	if len(t.shadow) == 0 {
		t.truncated = true
		return
	}
	fr := t.shadow[len(t.shadow)-1]
	t.shadow = t.shadow[:len(t.shadow)-1]
	if fr.funcIdx >= 0 {
		ids := t.localIDs[fr.funcIdx]
		for li := len(ids) - 1; li >= 0; li-- {
			r := t.localRange(fr.funcIdx, li, fr.fp)
			t.emit(trace.Event{Kind: trace.EvRemove, Obj: ids[li], BA: r.BA, EA: r.EA})
		}
	}
}

// allocCtx returns the distinct functions currently on the stack,
// outermost first.
func (t *Tracer) allocCtx() []string {
	seen := make([]bool, len(t.img.Funcs))
	var out []string
	for _, fr := range t.shadow {
		if fr.funcIdx < 0 || seen[fr.funcIdx] {
			continue
		}
		seen[fr.funcIdx] = true
		out = append(out, t.img.Funcs[fr.funcIdx].Name)
	}
	return out
}

func (t *Tracer) onAlloc(r arch.Range) {
	t.heapSeq++
	id := t.tab.Add(objects.Object{
		Kind: objects.KindHeap, Name: fmt.Sprintf("heap#%d", t.heapSeq),
		SizeBytes: r.Len(), AllocCtx: t.allocCtx(),
	})
	t.heapByAddr[r.BA] = heapObj{id: id, r: r}
	t.emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
}

func (t *Tracer) onFree(r arch.Range) {
	h, ok := t.heapByAddr[r.BA]
	if !ok {
		return
	}
	delete(t.heapByAddr, r.BA)
	t.emit(trace.Event{Kind: trace.EvRemove, Obj: h.id, BA: h.r.BA, EA: h.r.EA})
}

func (t *Tracer) onRealloc(old, new arch.Range) {
	h, ok := t.heapByAddr[old.BA]
	if !ok {
		return
	}
	if old == new {
		return
	}
	delete(t.heapByAddr, old.BA)
	t.emit(trace.Event{Kind: trace.EvRemove, Obj: h.id, BA: h.r.BA, EA: h.r.EA})
	h.r = new
	t.heapByAddr[new.BA] = h
	t.emit(trace.Event{Kind: trace.EvInstall, Obj: h.id, BA: new.BA, EA: new.EA})
}

// Run executes the traced program to completion and returns the
// finalised trace.
func (t *Tracer) Run(fuel uint64) (*trace.Trace, error) {
	if err := t.run(fuel); err != nil {
		return nil, err
	}
	n := 0
	for _, c := range t.events {
		n += len(c)
	}
	t.tr.Events = make([]trace.Event, 0, n)
	for _, c := range t.events {
		t.tr.Events = append(t.tr.Events, c...)
	}
	t.events = nil
	t.tr.BaseCycles = t.m.CPU.Cycles
	t.tr.Instret = t.m.CPU.Instret
	return t.tr, nil
}

// RunStreamed executes the traced program to completion, appending
// every event to w as it happens — the trace is never materialised, so
// peak memory is bounded by w's block buffer however long the run. On
// success w carries the final cycle counters and is ready to Close;
// the caller owns Close (and Discard on failure).
func (t *Tracer) RunStreamed(fuel uint64, w *trace.Writer) error {
	t.sink = w
	defer func() { t.sink = nil }()
	if err := t.run(fuel); err != nil {
		return err
	}
	if t.sinkErr != nil {
		return fmt.Errorf("tracer: streaming trace: %w", t.sinkErr)
	}
	w.SetCounters(t.m.CPU.Cycles, t.m.CPU.Instret)
	return nil
}

// run is the shared body of Run and RunStreamed: emit program-lifetime
// installs, execute, tear down whatever is still live.
func (t *Tracer) run(fuel uint64) error {
	// Program-lifetime monitors: globals and function statics.
	for _, lo := range t.lifetime {
		t.emit(trace.Event{Kind: trace.EvInstall, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
	}
	// The entry function's frame (no OnCall fires for it).
	entryIdx := -1
	if f := t.img.FuncAt(t.img.Entry); f != nil {
		entryIdx = t.img.FuncBySym[f.Name]
	}
	t.pushFunc(entryIdx, arch.Addr(t.m.CPU.Regs[isa.SP]))

	if err := t.m.Run(fuel); err != nil {
		return err
	}
	if t.truncated {
		return fmt.Errorf("tracer: shadow stack underflow (non-canonical call/return)")
	}

	// Tear down whatever is still live, innermost first.
	for len(t.shadow) > 0 {
		t.onRet(t.m.CPU.PC)
	}
	// Heap blocks still live go in object-ID order: ranging over the
	// map would emit them in Go's randomised iteration order, a
	// different trace on every run.
	live := make([]heapObj, 0, len(t.heapByAddr))
	for _, h := range t.heapByAddr {
		live = append(live, h)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	clear(t.heapByAddr)
	for _, h := range live {
		t.emit(trace.Event{Kind: trace.EvRemove, Obj: h.id, BA: h.r.BA, EA: h.r.EA})
	}
	for i := len(t.lifetime) - 1; i >= 0; i-- {
		lo := t.lifetime[i]
		t.emit(trace.Event{Kind: trace.EvRemove, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
	}
	return nil
}

// TraceProgram compiles nothing — it runs an already-loaded machine
// under a fresh tracer. Convenience for the pipeline.
func TraceProgram(m *kernel.Machine, program string, fuel uint64) (*trace.Trace, error) {
	return New(m, program).Run(fuel)
}
