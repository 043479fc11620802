package exp

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/fault"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/progs"
	"edb/internal/sim"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// artifacts holds the timing-independent output of a benchmark's
// compile + trace pipeline: the phase-1 event trace, its replay
// prepass, plus the static code-size measurements and the CP-opt
// check-class statistics. Everything here is immutable once built, so
// one cached copy can be analysed concurrently under any number of
// timing profiles.
type artifacts struct {
	tr *trace.Trace
	// pp is the trace's replay prepass (write resolution + dense page
	// remap), computed once here so every analysis pass — each timing
	// profile, every REPL re-run — shares it instead of re-deriving it
	// per replay. Immutable, like the trace it indexes.
	pp            *sim.Prepass
	storeFraction float64
	expansion     float64

	// expansionOpt is the code expansion under the optimized patcher.
	expansionOpt float64
	// Static check-optimization plan totals for the benchmark.
	// eliminatedIntra is the intraproc-only ablation count (how many of
	// the eliminated checks the single-function planner already got).
	eliminated, eliminatedIntra, fastChecks, hoisted int
	// Dynamic check-class fractions: the fraction of traced write events
	// issued by stores whose statically planned check is elided / fast.
	// These parameterise the CPOpt analytical model.
	elideFrac, fastFrac float64
}

// cacheKey identifies one (benchmark, scale) pipeline. Name and Fuel
// alone would suffice for the built-in generators (Fuel scales with the
// run length), but the source hash also keys correctly for any future
// caller that feeds hand-edited sources through runProgram. An
// artifact is a function of its key alone, so nothing else can make a
// cached one stale.
type cacheKey struct {
	name    string
	fuel    uint64
	srcHash uint64
}

// cacheEntry provides single-flight semantics: a goroutine builds the
// artifacts while holding the entry's mutex; every concurrent request
// for the same key blocks on the build, and later requests reuse the
// memoised result.
//
// Only successes are memoised. A failed build (or a panic escaping it)
// leaves art nil, so the next request rebuilds from scratch — the
// fault-injection chaos plans make "deterministic pipeline, transient
// failure" a real combination, and a negative cache would pin one
// injected fault as a permanent per-process failure, defeating both
// the retry policy and any later fault-free rerun.
type cacheEntry struct {
	mu  sync.Mutex
	art *artifacts
}

var (
	cacheMu sync.Mutex
	cache   = make(map[cacheKey]*cacheEntry)

	// builds counts cold (uncached) pipeline builds, for the
	// single-flight tests and cache diagnostics.
	builds atomic.Int64
)

// ResetCache drops every cached compile/trace artifact. Long-running
// hosts (the REPL, repeated benchmark harnesses) can call this to bound
// memory; tests use it to force cold pipelines.
func ResetCache() {
	cacheMu.Lock()
	cache = make(map[cacheKey]*cacheEntry)
	cacheMu.Unlock()
}

func keyFor(p progs.Program) cacheKey {
	h := fnv.New64a()
	h.Write([]byte(p.Source))
	return cacheKey{name: p.Name, fuel: p.Fuel, srcHash: h.Sum64()}
}

// cachedArtifacts returns the compile/trace artifacts for p, building
// them at most once per key across all concurrent callers as long as
// the build succeeds. Failures are returned but never memoised (see
// cacheEntry), and the entry mutex is released by defer, so a build
// that panics (chaos injection, genuine bug) leaves the entry clean
// and unlocked for the next caller.
//
// Observation (o may be nil = disabled): a request served from the
// cache — including one that merely waited for another goroutine's
// in-flight build — counts as a hit; a request that runs the build
// counts as a miss and wraps the build in a PhaseBuild span.
func cachedArtifacts(p progs.Program, o *obs) (*artifacts, error) {
	key := keyFor(p)
	cacheMu.Lock()
	e := cache[key]
	if e == nil {
		e = &cacheEntry{}
		cache[key] = e
	}
	cacheMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.art != nil {
		o.cacheResult(p.Name, true)
		return e.art, nil
	}
	o.cacheResult(p.Name, false)
	ps := o.phase(p.Name, PhaseBuild)
	art, err := buildArtifacts(p, o)
	ps.done(err)
	if err != nil {
		return nil, err
	}
	e.art = art
	return art, nil
}

// buildArtifacts runs the uncached pipeline: compile, assemble, trace
// one run (phase 1), and take the static code-size measurements.
func buildArtifacts(p progs.Program, o *obs) (*artifacts, error) {
	if err := fault.Inject(fault.SiteBuildArtifacts, p.Name); err != nil {
		return nil, fmt.Errorf("exp: building artifacts for %s: %w", p.Name, err)
	}
	builds.Add(1)
	ps := o.phase(p.Name, PhaseCompile)
	prog, err := minic.Compile(p.Source)
	ps.done(err)
	if err != nil {
		return nil, fmt.Errorf("exp: compiling %s: %w", p.Name, err)
	}
	ps = o.phase(p.Name, PhaseAssemble)
	img, err := asm.Assemble(prog)
	ps.done(err)
	if err != nil {
		return nil, fmt.Errorf("exp: assembling %s: %w", p.Name, err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		return nil, fmt.Errorf("exp: machine for %s: %w", p.Name, err)
	}
	ps = o.phase(p.Name, PhaseTracegen)
	tr, err := tracer.New(m, p.Name).Run(p.Fuel)
	events := int64(-1)
	if tr != nil {
		events = int64(len(tr.Events))
	}
	ps.doneTraced(err, events)
	if err != nil {
		return nil, fmt.Errorf("exp: tracing %s: %w", p.Name, err)
	}
	ps = o.phase(p.Name, PhasePrepass)
	pp, err := sim.Prepare(tr)
	ps.done(err)
	if err != nil {
		return nil, fmt.Errorf("exp: prepass for %s: %w", p.Name, err)
	}
	a := &artifacts{tr: tr, pp: pp}
	stores, total := img.CountStores()
	a.storeFraction = float64(stores) / float64(total)
	// The check plan builds the interprocedural layer once. It runs over
	// the same unpatched program the trace was taken from, so traced
	// write PCs line up with its layout.
	ps = o.phase(p.Name, PhaseSummaries)
	plan := analysis.PlanChecks(prog)
	ps.done(nil)
	ps = o.phase(p.Name, PhaseMeasure)
	defer ps.done(nil)
	// CP-opt check-class statistics: each dynamic write is classified by
	// the check class its store was statically assigned, looked up by
	// text word. This reads the unpatched layout, so it runs before the
	// optimised patch below rewrites prog.
	a.eliminated, a.eliminatedIntra, a.fastChecks, a.hoisted =
		plan.EliminatedChecks, plan.EliminatedIntra, plan.FastChecks, plan.HoistedChecks
	classOf := make([]analysis.CheckClass, len(img.Text))
	layout := asm.LayoutAddrs(prog)
	realStores := 0
	for fi, f := range prog.Funcs {
		fp := plan.Funcs[f.Name]
		for i, in := range f.Body {
			if in.Pseudo == asm.PNone && in.Op == isa.SW {
				realStores++
				if w, ok := arch.TextWord(layout[fi][i]); ok && w < len(classOf) {
					classOf[w] = fp.ClassOf(i)
				}
			}
		}
	}
	var nWrites, nFast, nElide uint64
	for _, e := range tr.Events {
		if e.Kind != trace.EvWrite {
			continue
		}
		nWrites++
		class := analysis.CheckFull
		if w, ok := arch.TextWord(e.PC); ok && w < len(classOf) {
			class = classOf[w]
		}
		switch class {
		case analysis.CheckElided:
			nElide++
		case analysis.CheckFast:
			nFast++
		}
	}
	if nWrites > 0 {
		a.elideFrac = float64(nElide) / float64(nWrites)
		a.fastFrac = float64(nFast) / float64(nWrites)
	}
	// Code expansion under the optimised patcher: the traced program
	// itself, patched with the plan above. Plain CodePatch gives every
	// real store the two-word check pair and adds a one-word stub, which
	// OriginalWords already counts, so its expansion follows from the
	// same program's store count.
	if pr, err := codepatch.Patch(prog, plan); err == nil {
		a.expansionOpt = pr.Expansion()
		a.expansion = float64(2*realStores) / float64(pr.OriginalWords)
	}
	return a, nil
}
