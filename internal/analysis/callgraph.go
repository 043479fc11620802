package analysis

import (
	"sort"

	"edb/internal/asm"
	"edb/internal/isa"
)

// CallGraph is the whole-program call graph over the symbolic assembly:
// one node per function, a direct edge per PCall whose callee is defined
// in the program, and a conservative "top" marking for anything the
// static analysis cannot resolve — raw-immediate JAL targets, indirect
// JALR jumps (the planned function-pointer workloads), calls to symbols
// the program does not define, and functions whose control flow is
// irregular. A function marked CallsUnknown must be assumed to call
// (and be callable from) anything, so every interprocedural fact that
// depends on it degrades to the safe bottom.
type CallGraph struct {
	// Funcs lists the node names in program order.
	Funcs []string
	// Callees maps a function to its direct callees, sorted and deduped.
	Callees map[string][]string
	// Callers is the reverse edge map, sorted and deduped.
	Callers map[string][]string
	// CallsUnknown marks functions containing a call or jump the
	// analysis cannot resolve to a defined function.
	CallsUnknown map[string]bool
	// HasUnknown is set when any function calls an unknown target: the
	// conservative top element. With it set, every function must be
	// assumed reachable from the unresolved site, so interprocedural
	// entry facts collapse to bottom program-wide.
	HasUnknown bool
}

// BuildCallGraph constructs the call graph of p. The CodePatch check
// stub (checkFuncName) is excluded: its body is a host-dispatched
// return word, and check calls (jalr plink, r0, #stub) are not calls in
// the program's own call graph.
func BuildCallGraph(p *asm.Program) *CallGraph {
	cg := &CallGraph{
		Callees:      make(map[string][]string),
		Callers:      make(map[string][]string),
		CallsUnknown: make(map[string]bool),
	}
	defined := make(map[string]bool)
	for _, f := range p.Funcs {
		if f.Name == checkFuncName {
			continue
		}
		defined[f.Name] = true
	}
	for _, f := range p.Funcs {
		if f.Name == checkFuncName {
			continue
		}
		cg.Funcs = append(cg.Funcs, f.Name)
		callees := make(map[string]bool)
		for _, in := range f.Body {
			switch kindOf(in) {
			case kindCall:
				if in.Pseudo == asm.PCall && defined[in.Label] {
					callees[in.Label] = true
				} else {
					// Raw JAL immediate or a call to a symbol the
					// program does not define.
					cg.CallsUnknown[f.Name] = true
				}
			case kindIrregular:
				// Indirect JALR / raw-immediate branch: could transfer
				// anywhere, including into another function.
				cg.CallsUnknown[f.Name] = true
			}
		}
		out := make([]string, 0, len(callees))
		for c := range callees {
			out = append(out, c)
		}
		sort.Strings(out)
		cg.Callees[f.Name] = out
		if cg.CallsUnknown[f.Name] {
			cg.HasUnknown = true
		}
	}
	for _, fn := range cg.Funcs {
		for _, c := range cg.Callees[fn] {
			cg.Callers[c] = append(cg.Callers[c], fn)
		}
	}
	for _, fn := range cg.Funcs {
		sort.Strings(cg.Callers[fn])
	}
	return cg
}

// SCCs returns the strongly connected components of the call graph in
// bottom-up (reverse topological) order: every component is preceded by
// all components it calls into, which is the order the summary fixpoint
// consumes. Tarjan's algorithm emits components in exactly this order;
// iteration is over program order, so the result is deterministic.
func (cg *CallGraph) SCCs() [][]string {
	index := make(map[string]int, len(cg.Funcs))
	low := make(map[string]int, len(cg.Funcs))
	onStack := make(map[string]bool, len(cg.Funcs))
	var stack []string
	var out [][]string
	next := 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range cg.Callees[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			out = append(out, comp)
		}
	}
	for _, f := range cg.Funcs {
		if _, seen := index[f]; !seen {
			strong(f)
		}
	}
	return out
}

// frameInfo describes what the analysis could prove about a function's
// stack-frame discipline. Only frame-disciplined functions get their
// SP/FP-relative stores classified as own-frame writes; everything else
// is treated as writing unknown memory.
type frameInfo struct {
	// disciplined is set when the function follows the compiler's frame
	// protocol exactly: SP is defined only by the prologue's
	// `addi sp, sp, -F` (the first instruction) and the epilogue's
	// `addi sp, fp, 0`; FP only by the prologue's `addi fp, sp, F` and
	// the epilogue's restore `addi fp, <reg>, 0`.
	disciplined bool
	// frameBytes is 4*FrameWords, the span of the function's own frame:
	// SP-relative offsets in [0, frameBytes) and FP-relative offsets in
	// [-frameBytes, 0) address it.
	frameBytes int64
}

// frameOf derives the frame discipline of f by inspecting every
// definition of SP and FP in the body.
func frameOf(f *asm.Func) frameInfo {
	fb := int64(f.FrameWords) * 4
	if fb <= 0 {
		return frameInfo{}
	}
	ok := true
	for i, in := range f.Body {
		if kindOf(in) == kindCall {
			continue // calls preserve SP/FP by convention
		}
		for _, r := range defs(in) {
			switch r {
			case isa.SP:
				// Prologue allocation or epilogue release only.
				if in.Pseudo == asm.PNone && in.Op == isa.ADDI &&
					((i == 0 && in.RS1 == isa.SP && int64(in.Imm) == -fb) ||
						(in.RS1 == isa.FP && in.Imm == 0)) {
					continue
				}
				ok = false
			case isa.FP:
				// Prologue frame-pointer set or epilogue restore only.
				if in.Pseudo == asm.PNone && in.Op == isa.ADDI &&
					((in.RS1 == isa.SP && int64(in.Imm) == fb) ||
						(in.RS1 != isa.SP && in.RS1 != isa.FP && in.Imm == 0)) {
					continue
				}
				ok = false
			}
		}
	}
	return frameInfo{disciplined: ok, frameBytes: fb}
}

// frameSlot canonicalises an own-frame address expression to its
// FP-relative byte offset. It returns ok=false when the expression does
// not provably address the function's own frame.
func frameSlot(e Expr, fi frameInfo) (int64, bool) {
	if !fi.disciplined || e.Kind != ERegister {
		return 0, false
	}
	switch e.Reg {
	case isa.FP:
		if e.Off >= -fi.frameBytes && e.Off < 0 {
			return e.Off, true
		}
	case isa.SP:
		if e.Off >= 0 && e.Off < fi.frameBytes {
			return e.Off - fi.frameBytes, true
		}
	}
	return 0, false
}
