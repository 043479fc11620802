// Package progs synthesises the five benchmark debuggees of §6 of the
// paper. The originals (GCC 1.4 compiling rtl.c, CommonTeX, Spice 3c1,
// the Perfect-Club QCD kernel, and the BPS Bayesian problem solver) are
// unavailable in this environment, so each generator emits a mini-C
// program with the same *structural signature* — the properties the
// monitor-session statistics actually depend on:
//
//	gcc    many small functions over a heap-allocated IR tree; deep
//	       dynamic call contexts; allocation-heavy
//	ctex   box-and-glue paragraph breaking over large static tables;
//	       many globals and function statics; no heap at all
//	spice  sparse-matrix transient analysis; heap-allocated rows and
//	       vectors; numeric inner loops
//	qcd    4-D lattice sweeps over big global arrays; the highest write
//	       rate of the suite; no heap at all
//	bps    best-first 8-puzzle search; thousands of small heap nodes;
//	       the lowest write density of the suite
//
// Programs are deterministic (in-language xorshift PRNG) and print a
// final checksum so tests can verify that instrumented and patched runs
// preserve semantics. The scale parameter multiplies run length without
// changing the program's variable population, mirroring the
// relative-overhead invariance argument in DESIGN.md §5.
package progs

import "fmt"

// Program is one synthesised benchmark.
type Program struct {
	// Name is the paper's benchmark name (lowercase).
	Name string
	// Source is the mini-C translation unit.
	Source string
	// Fuel bounds the run in retired instructions.
	Fuel uint64
	// Description summarises the workload.
	Description string
}

// All returns the five benchmarks at the given scale (≥1).
func All(scale int) []Program {
	if scale < 1 {
		scale = 1
	}
	return []Program{
		GCC(scale),
		CTEX(scale),
		Spice(scale),
		QCD(scale),
		BPS(scale),
	}
}

// ByName returns the named benchmark at the given scale. Besides the
// five paper benchmarks this resolves "smc", the self-modifying
// workload, which is not part of All (it is not a §6 benchmark and
// would perturb the paper-table goldens).
func ByName(name string, scale int) (Program, error) {
	if name == "smc" {
		return SMC(scale), nil
	}
	for _, p := range All(scale) {
		if p.Name == name {
			return p, nil
		}
	}
	return Program{}, fmt.Errorf("progs: unknown program %q (want gcc, ctex, spice, qcd, bps, or smc)", name)
}

// Names lists the benchmark names in paper order.
func Names() []string { return []string{"gcc", "ctex", "spice", "qcd", "bps"} }
