// Command minicc is the standalone mini-C compiler driver: it compiles
// a source file for the simulated machine and runs it, optionally
// printing the disassembly or execution statistics.
//
// Usage:
//
//	minicc prog.mc              # compile and run
//	minicc -S prog.mc           # disassemble instead of running
//	minicc -stats prog.mc       # run and report cycles/instructions
//	minicc -benchmark gcc -S    # operate on a built-in benchmark
//	minicc -benchmark gcc -lint # verify patched-image soundness
//	minicc -dot main prog.mc    # Graphviz CFG + dominator tree
//	minicc -callgraph prog.mc   # Graphviz call graph + write summaries
//	minicc -summaries prog.mc   # one-line interprocedural summaries
package main

import (
	"flag"
	"fmt"
	"os"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/core/trappatch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/progs"
)

func main() {
	disasm := flag.Bool("S", false, "print disassembly instead of running")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	benchmark := flag.String("benchmark", "", "use a built-in benchmark instead of a source file")
	scale := flag.Int("scale", 1, "benchmark scale")
	fuel := flag.Uint64("fuel", 2_000_000_000, "instruction budget")
	lint := flag.Bool("lint", false, "verify patched-image soundness (CP, CP-opt, TP) instead of running; exit 1 on violations")
	dot := flag.String("dot", "", "print the Graphviz CFG + dominator tree of the named function (or 'all') instead of running; with -interproc, annotated with callee summaries")
	interproc := flag.Bool("interproc", false, "annotate -dot output with the interprocedural layer's entry facts and callee summaries")
	callgraph := flag.Bool("callgraph", false, "print the Graphviz call graph with write summaries instead of running")
	summaries := flag.Bool("summaries", false, "print one-line interprocedural write summaries instead of running")
	flag.Parse()

	var src string
	switch {
	case *benchmark != "":
		p, err := progs.ByName(*benchmark, *scale)
		if err != nil {
			fail(err)
		}
		src = p.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		src = string(data)
	default:
		fail(fmt.Errorf("usage: minicc [-S] [-stats] <file.mc> | -benchmark <name>"))
	}

	if *lint {
		os.Exit(runLint(src))
	}
	if *dot != "" {
		runDot(src, *dot, *interproc)
		return
	}
	if *callgraph || *summaries {
		runInterproc(src, *callgraph, *summaries)
		return
	}

	img, err := minic.CompileToImage(src)
	if err != nil {
		fail(err)
	}
	if *disasm {
		fmt.Print(img.Disassemble())
		return
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		fail(err)
	}
	if err := m.Run(*fuel); err != nil {
		fail(err)
	}
	fmt.Print(m.Out.String())
	if *stats {
		stores, total := img.CountStores()
		fmt.Fprintf(os.Stderr, "exit=%d instructions=%d cycles=%d simulated=%.4fs text=%d words (%d stores)\n",
			m.CPU.ExitCode, m.CPU.Instret, m.CPU.Cycles, m.BaseSeconds(), total, stores)
	}
	os.Exit(int(m.CPU.ExitCode))
}

// runLint verifies that every compile-time patching strategy produces a
// sound image for src: CodePatch and the optimized CodePatch must leave
// every store dominated by a matching check (analysis.VerifyPatched),
// and TrapPatch must leave no store at all (analysis.VerifyTrapPatched).
// Violations are reported with function names and instruction indices;
// the return value is the process exit code (0 clean, 1 violations).
func runLint(src string) int {
	bad := 0
	check := func(variant string, vs []analysis.Violation) {
		if len(vs) == 0 {
			fmt.Printf("lint %-7s ok\n", variant)
			return
		}
		bad++
		for _, v := range vs {
			fmt.Printf("lint %-7s %s\n", variant, v)
		}
	}

	compile := func() *asm.Program {
		prog, err := minic.Compile(src)
		if err != nil {
			fail(err)
		}
		return prog
	}

	// Unoptimized CodePatch.
	prog := compile()
	if _, err := codepatch.Patch(prog, nil); err != nil {
		fail(err)
	}
	check("cp", analysis.VerifyPatched(prog))

	// Optimized CodePatch (each patch mutates, so recompile). The
	// verifier additionally validates the shipped dependence map: every
	// interprocedural elision must re-derive from the patched image.
	prog = compile()
	res, err := codepatch.Patch(prog, analysis.PlanChecks(prog))
	if err != nil {
		fail(err)
	}
	check("cp-opt", analysis.VerifyPatchedWithDeps(prog, res.DepMap))

	// TrapPatch.
	prog = compile()
	tp, err := trappatch.Patch(prog)
	if err != nil {
		fail(err)
	}
	check("tp", analysis.VerifyTrapPatched(prog, tp.Table))

	if bad > 0 {
		return 1
	}
	return 0
}

// runDot prints the Graphviz CFG + dominator tree of one function (or
// every function, for "all") of the unpatched program; with interproc
// set, nodes are annotated with entry facts and callee summaries.
func runDot(src, fn string, interproc bool) {
	prog, err := minic.Compile(src)
	if err != nil {
		fail(err)
	}
	var ip *analysis.Interproc
	if interproc {
		ip = analysis.ComputeInterproc(prog)
	}
	found := false
	for _, f := range prog.Funcs {
		if fn != "all" && f.Name != fn {
			continue
		}
		found = true
		if ip != nil {
			fmt.Print(analysis.DumpDotAnnotated(analysis.BuildCFG(f), ip))
		} else {
			fmt.Print(analysis.DumpDot(analysis.BuildCFG(f)))
		}
	}
	if !found {
		var names []string
		for _, f := range prog.Funcs {
			names = append(names, f.Name)
		}
		fail(fmt.Errorf("no function %q (have: %v)", fn, names))
	}
}

// runInterproc prints the whole-program interprocedural view: the
// call graph as Graphviz and/or the per-function summary lines (in
// program order, matching the call-graph node list).
func runInterproc(src string, callgraph, summaries bool) {
	prog, err := minic.Compile(src)
	if err != nil {
		fail(err)
	}
	ip := analysis.ComputeInterproc(prog)
	if callgraph {
		fmt.Print(analysis.DumpCallGraphDot(ip))
	}
	if summaries {
		for _, fn := range ip.CallGraph.Funcs {
			if s := ip.Summaries[fn]; s != nil {
				fmt.Println(s)
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "minicc:", err)
	os.Exit(2)
}
