package codepatch_test

import (
	"math/rand"
	"sort"
	"testing"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/core/wms"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/progs"
)

// The optimized patcher's contract is semantic identity: for the same
// source, the same input, and the same monitor activity, an optimized
// image must deliver *exactly* the notification sequence of an
// unoptimized one, print the same output, and keep the paper's shared
// counters (Figure 2) identical. These tests check that differentially
// on randomly generated mini-C programs and on all five benchmark
// workloads, with and without mid-run monitor updates.
//
// Notifications are compared as (BA, EA, store ordinal): the program
// counter necessarily differs between the two images (the optimized one
// inserts fewer instructions), but the sequence of *executed stores* is
// identical in program order — check calls are not stores — so
// CPU.Stores at notification time identifies the store precisely.

// notif is one observed notification, position-stamped by the number of
// executed stores at delivery time.
type notif struct {
	BA, EA arch.Addr
	Store  uint64
}

// machineUnderTest bundles one patched machine with its WMS and the
// notification log.
type machineUnderTest struct {
	m      *kernel.Machine
	w      *codepatch.WMS
	res    *codepatch.PatchResult
	notifs []notif
}

// Patch variants under differential test: the unoptimized patch, the
// intraprocedural optimizer (PR 2 baseline), and the interprocedural
// optimizer (call-graph + summary driven).
// Each variant's planner computes its check plan over the unpatched
// program (nil for the unoptimized patch).
var patchVariants = []struct {
	name string
	plan func(*asm.Program) *analysis.Plan
}{
	{"unopt", func(*asm.Program) *analysis.Plan { return nil }},
	{"intra", func(p *asm.Program) *analysis.Plan {
		return analysis.PlanChecksWithOptions(p, analysis.PlanOptions{Intraproc: true})
	}},
	{"inter", analysis.PlanChecks},
}

// build compiles src, patches it with the plan the given planner
// computes, and attaches a recording CodePatch WMS.
func build(t *testing.T, src string, plan func(*asm.Program) *analysis.Plan) *machineUnderTest {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := codepatch.Patch(prog, plan(prog))
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if vs := analysis.VerifyPatchedWithDeps(prog, res.DepMap); len(vs) != 0 {
		t.Fatalf("patched image does not verify: %v", vs[0])
	}
	img, err := asm.Assemble(prog)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	mut := &machineUnderTest{m: m, res: res}
	mut.w, err = codepatch.Attach(m, func(n wms.Notification) {
		mut.notifs = append(mut.notifs, notif{BA: n.BA, EA: n.EA, Store: m.CPU.Stores})
	})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	return mut
}

// monitorRanges picks a deterministic set of monitor ranges from the
// image's data symbols: the first symbol in name order is fully
// monitored, the second only its first word. Both images are built from
// the same source, so their data layouts are identical.
func monitorRanges(m *kernel.Machine) []arch.Range {
	syms := make([]string, 0, len(m.Image.Data))
	for s := range m.Image.Data {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	var rs []arch.Range
	if len(syms) > 0 {
		rs = append(rs, m.Image.Data[syms[0]])
	}
	if len(syms) > 1 {
		r := m.Image.Data[syms[1]]
		rs = append(rs, arch.Range{BA: r.BA, EA: r.BA + arch.WordBytes})
	}
	return rs
}

// compare asserts the two runs are observationally identical and that
// the static accounting invariant holds.
func compare(t *testing.T, unopt, opt *machineUnderTest) {
	t.Helper()
	if got, want := opt.m.Out.String(), unopt.m.Out.String(); got != want {
		t.Errorf("program output diverged:\nopt:   %q\nunopt: %q", got, want)
	}
	if got, want := opt.m.CPU.Stores, unopt.m.CPU.Stores; got != want {
		t.Errorf("executed stores diverged: opt %d, unopt %d", got, want)
	}
	if len(opt.notifs) != len(unopt.notifs) {
		t.Fatalf("notification count diverged: opt %d, unopt %d\nopt:   %v\nunopt: %v",
			len(opt.notifs), len(unopt.notifs), opt.notifs, unopt.notifs)
	}
	for i := range unopt.notifs {
		if opt.notifs[i] != unopt.notifs[i] {
			t.Fatalf("notification %d diverged: opt %+v, unopt %+v",
				i, opt.notifs[i], unopt.notifs[i])
		}
	}
	if got, want := opt.w.Stats(), unopt.w.Stats(); got != want {
		t.Errorf("WMS stats diverged: opt %+v, unopt %+v", got, want)
	}
	// The accounting invariant: every store the unoptimized patch
	// checks is, in the optimized image, either still checked or
	// statically elided — nothing falls through the cracks.
	if unopt.w.Checks != opt.w.Checks+opt.w.Elided {
		t.Errorf("check accounting broken: unopt.Checks=%d, opt.Checks=%d + opt.Elided=%d",
			unopt.w.Checks, opt.w.Checks, opt.w.Elided)
	}
}

const diffFuel = 20_000_000

// TestDifferentialRandomPrograms: generated programs, monitors
// installed before the run and never touched again. In this regime
// every statically elided check must be proven redundant at run time —
// ElideFallbacks must be exactly zero, which is the strongest check we
// have that the dataflow facts are actually true of the execution.
func TestDifferentialRandomPrograms(t *testing.T) {
	const seeds = 30
	for seed := int64(0); seed < seeds; seed++ {
		src := minic.GenProgram(rand.New(rand.NewSource(seed)))
		muts := make([]*machineUnderTest, len(patchVariants))
		for vi, v := range patchVariants {
			mut := build(t, src, v.plan)
			for _, r := range monitorRanges(mut.m) {
				if err := mut.w.InstallMonitor(r.BA, r.EA); err != nil {
					t.Fatal(err)
				}
			}
			if err := mut.m.Run(diffFuel); err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, v.name, err, src)
			}
			muts[vi] = mut
		}
		unopt, intra, inter := muts[0], muts[1], muts[2]
		compare(t, unopt, intra)
		compare(t, unopt, inter)
		for vi, opt := range []*machineUnderTest{intra, inter} {
			if opt.w.ElideFallbacks != 0 {
				t.Errorf("seed %d %s: %d elide fallbacks without mid-run updates (analysis fact was invalidated)\n%s",
					seed, patchVariants[vi+1].name, opt.w.ElideFallbacks, src)
			}
		}
		if inter.res.EliminatedChecks < intra.res.EliminatedChecks {
			t.Errorf("seed %d: interproc elides %d < intraproc %d",
				seed, inter.res.EliminatedChecks, intra.res.EliminatedChecks)
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged; source:\n%s", seed, src)
		}
	}
}

// monitorEvent is one scripted mid-run update, applied once the
// machine's executed-store count reaches After. Store counts advance
// identically in both images, so the script perturbs both runs at the
// same point in the store stream.
type monitorEvent struct {
	After   uint64
	Install bool
	R       arch.Range
}

// runScripted single-steps the machine, applying script events as their
// store thresholds are crossed.
func runScripted(t *testing.T, mut *machineUnderTest, script []monitorEvent) {
	t.Helper()
	si := 0
	for steps := 0; !mut.m.CPU.Halted; steps++ {
		if steps > diffFuel {
			t.Fatal("scripted run exhausted fuel")
		}
		for si < len(script) && mut.m.CPU.Stores >= script[si].After {
			ev := script[si]
			si++
			var err error
			if ev.Install {
				err = mut.w.InstallMonitor(ev.R.BA, ev.R.EA)
			} else {
				err = mut.w.RemoveMonitor(ev.R.BA, ev.R.EA)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := mut.m.CPU.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialInterleavedMonitors: monitors are installed and
// removed *during* the run. Mid-run updates invalidate the optimizer's
// static facts, so elided stores may fall back to full lookups — the
// point of the test is that the notification sequence, output, and
// shared counters stay identical anyway.
func TestDifferentialInterleavedMonitors(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		src := minic.GenProgram(rand.New(rand.NewSource(seed)))
		unopt := build(t, src, patchVariants[0].plan)
		intra := build(t, src, patchVariants[1].plan)
		inter := build(t, src, patchVariants[2].plan)

		rs := monitorRanges(unopt.m)
		if len(rs) < 2 {
			t.Fatal("generated program must have at least two data symbols")
		}
		all := arch.Range{BA: rs[0].BA, EA: unopt.m.Image.GlobalEnd}
		script := []monitorEvent{
			{After: 0, Install: true, R: rs[0]},
			{After: 5, Install: true, R: rs[1]},
			{After: 20, Install: false, R: rs[0]},
			{After: 40, Install: true, R: all},
			{After: 90, Install: false, R: all},
			{After: 120, Install: true, R: rs[0]},
		}
		runScripted(t, unopt, script)
		runScripted(t, intra, script)
		runScripted(t, inter, script)
		compare(t, unopt, intra)
		compare(t, unopt, inter)
		if t.Failed() {
			t.Fatalf("seed %d diverged; source:\n%s", seed, src)
		}
	}
}

// ---------------------------------------------------------------------
// Re-patch-storm differential.
//
// The incremental engine's contract is invariance to the invalidation
// policy: a run whose monitor set (and, for the self-modifying
// workload, whose text) churns under the incremental policy must be
// bit-identical — output, executed stores, notification sequence,
// monitor statistics, check and elision counters — to the same run
// under the full-flush policy. The full flush IS the from-scratch
// re-patch: patching is deterministic given the source (asserted by
// TestRepatchDeterministic), static decisions do not depend on the
// monitor set, and a freshly attached WMS starts with exactly the empty
// fact tables a full flush leaves behind. The two policies may differ
// only in what the dropped-fact fallbacks cost: the incremental run can
// keep facts the flush discards, so it may take fewer elide fallbacks
// and more fast hits, never more/fewer checks.

// repatchOp is one scripted engine action, applied once the executed-
// store count reaches After.
type repatchOp struct {
	After   uint64
	Kind    byte // 'i' install, 'r' remove, 'w' rewrite
	R       arch.Range
	Func    string
	Ordinal int
	Delta   int32
}

// stormRun is one machine under a re-patch storm: the engine wrapping
// it and the observed notifications.
type stormRun struct {
	*machineUnderTest
	img *codepatch.Image
}

// buildStorm is build() plus the incremental engine wrapper.
func buildStorm(t *testing.T, src string, plan func(*asm.Program) *analysis.Plan, incremental bool) *stormRun {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := codepatch.Patch(prog, plan(prog))
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if vs := analysis.VerifyPatchedWithDeps(prog, res.DepMap); len(vs) != 0 {
		t.Fatalf("patched image does not verify: %v", vs[0])
	}
	img, err := asm.Assemble(prog)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	mut := &machineUnderTest{m: m, res: res}
	mut.w, err = codepatch.Attach(m, func(n wms.Notification) {
		mut.notifs = append(mut.notifs, notif{BA: n.BA, EA: n.EA, Store: m.CPU.Stores})
	})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	mut.w.SetIncremental(incremental)
	return &stormRun{machineUnderTest: mut, img: codepatch.NewImage(prog, res, m, mut.w)}
}

// runStorm single-steps until every scripted op has fired, then lets
// the machine free-run to completion. Op thresholds are store counts,
// which advance identically in every run of the same program, so the
// storm perturbs each run at the same point in the store stream.
func runStorm(t *testing.T, sr *stormRun, script []repatchOp, fuel uint64) {
	t.Helper()
	si := 0
	for steps := uint64(0); !sr.m.CPU.Halted && si < len(script); steps++ {
		if steps > fuel {
			t.Fatal("storm run exhausted fuel during scripted window")
		}
		for si < len(script) && sr.m.CPU.Stores >= script[si].After {
			op := script[si]
			si++
			var err error
			switch op.Kind {
			case 'i':
				err = sr.img.InstallMonitor(op.R.BA, op.R.EA)
			case 'r':
				err = sr.img.RemoveMonitor(op.R.BA, op.R.EA)
			case 'w':
				err = sr.img.RewriteStore(op.Func, op.Ordinal, op.Delta)
			default:
				t.Fatalf("bad op kind %q", op.Kind)
			}
			if err != nil {
				t.Fatalf("storm op %c at store %d: %v", op.Kind, op.After, err)
			}
		}
		if sr.m.CPU.Halted {
			break
		}
		if err := sr.m.CPU.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !sr.m.CPU.Halted {
		if err := sr.m.Run(fuel); err != nil {
			t.Fatalf("storm free-run: %v", err)
		}
	}
}

// compareStorm asserts policy invariance between a full-flush run and
// an incremental run of the same variant, including the one-sided
// fallback-accounting bounds.
func compareStorm(t *testing.T, full, incr *stormRun) {
	t.Helper()
	if got, want := incr.m.Out.String(), full.m.Out.String(); got != want {
		t.Errorf("output diverged across invalidation policies:\nincr: %q\nfull: %q", got, want)
	}
	if got, want := incr.m.CPU.Stores, full.m.CPU.Stores; got != want {
		t.Errorf("executed stores diverged: incr %d, full %d", got, want)
	}
	if len(incr.notifs) != len(full.notifs) {
		t.Fatalf("notification count diverged: incr %d, full %d", len(incr.notifs), len(full.notifs))
	}
	for i := range full.notifs {
		if incr.notifs[i] != full.notifs[i] {
			t.Fatalf("notification %d diverged: incr %+v, full %+v", i, incr.notifs[i], full.notifs[i])
		}
	}
	if got, want := incr.w.Stats(), full.w.Stats(); got != want {
		t.Errorf("WMS stats diverged: incr %+v, full %+v", got, want)
	}
	if incr.w.Checks != full.w.Checks || incr.w.Elided != full.w.Elided || incr.w.PreChecks != full.w.PreChecks {
		t.Errorf("check counters diverged: incr (C=%d E=%d P=%d), full (C=%d E=%d P=%d)",
			incr.w.Checks, incr.w.Elided, incr.w.PreChecks,
			full.w.Checks, full.w.Elided, full.w.PreChecks)
	}
	// The whole point of keeping facts: the incremental run never pays
	// MORE fallbacks than the flush-everything run, and never answers
	// fewer checks out of the miss cache.
	if incr.w.ElideFallbacks > full.w.ElideFallbacks {
		t.Errorf("incremental pays more elide fallbacks (%d) than full flush (%d)",
			incr.w.ElideFallbacks, full.w.ElideFallbacks)
	}
	if incr.w.FastHits < full.w.FastHits {
		t.Errorf("incremental takes fewer fast hits (%d) than full flush (%d)",
			incr.w.FastHits, full.w.FastHits)
	}
	if incr.img.Stats.Installs != full.img.Stats.Installs ||
		incr.img.Stats.Removes != full.img.Stats.Removes ||
		incr.img.Stats.Rewrites != full.img.Stats.Rewrites {
		t.Errorf("engine op counts diverged: incr %+v, full %+v", incr.img.Stats, full.img.Stats)
	}
}

// genStormScript builds a random interleaved install/remove script over
// the image's data symbols. Thresholds are strictly increasing so the
// script replays identically from the store stream.
func genStormScript(rng *rand.Rand, m *kernel.Machine, ops int) []repatchOp {
	syms := make([]string, 0, len(m.Image.Data))
	for s := range m.Image.Data {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	pool := make([]arch.Range, 0, len(syms)+1)
	for _, s := range syms {
		pool = append(pool, m.Image.Data[s])
	}
	if len(pool) == 0 {
		return nil
	}
	pool = append(pool, arch.Range{BA: pool[0].BA, EA: m.Image.GlobalEnd})
	var script []repatchOp
	after := uint64(0)
	for k := 0; k < ops; k++ {
		after += uint64(rng.Intn(30))
		r := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 { // sometimes monitor a single word
			r = arch.Range{BA: r.BA, EA: r.BA + arch.WordBytes}
		}
		kind := byte('i')
		if rng.Intn(2) == 0 {
			kind = 'r'
		}
		script = append(script, repatchOp{After: after, Kind: kind, R: r})
	}
	return script
}

// TestRepatchDeterministic pins the from-scratch-oracle argument:
// patching the same source twice yields bit-identical text images, so
// "flush every runtime fact" and "throw the image away and re-patch
// from scratch" are the same machine state.
func TestRepatchDeterministic(t *testing.T) {
	src := progs.SMC(1).Source
	for _, v := range patchVariants {
		a := build(t, src, v.plan)
		b := build(t, src, v.plan)
		ta, tb := a.m.Image.Text, b.m.Image.Text
		if len(ta) != len(tb) {
			t.Fatalf("%s: re-patch changed text size: %d vs %d words", v.name, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("%s: re-patch text differs at word %d: %#x vs %#x", v.name, i, ta[i], tb[i])
			}
		}
	}
}

// TestRepatchStormRandomPrograms: generated programs under random
// interleaved install/remove storms, every optimization tier, the
// incremental policy differentially pinned to the full-flush oracle.
func TestRepatchStormRandomPrograms(t *testing.T) {
	const seeds = 14
	keptSomewhere := false
	for seed := int64(0); seed < seeds; seed++ {
		src := minic.GenProgram(rand.New(rand.NewSource(200 + seed)))
		for _, v := range patchVariants {
			full := buildStorm(t, src, v.plan, false)
			incr := buildStorm(t, src, v.plan, true)
			script := genStormScript(rand.New(rand.NewSource(9000+seed)), full.m, 12)
			runStorm(t, full, script, diffFuel)
			runStorm(t, incr, script, diffFuel)
			compareStorm(t, full, incr)
			if incr.w.FactsKept > 0 {
				keptSomewhere = true
			}
			if full.w.FactsDropped != 0 || full.w.FactsKept != 0 {
				t.Errorf("full-flush run counted incremental facts: dropped=%d kept=%d",
					full.w.FactsDropped, full.w.FactsKept)
			}
			if t.Failed() {
				t.Fatalf("seed %d %s diverged; source:\n%s", seed, v.name, src)
			}
		}
	}
	if !keptSomewhere {
		t.Error("incremental policy never kept a fact across any storm — selective invalidation is not engaging")
	}
}

// TestRepatchStormWorkloads: the five paper workloads plus the
// self-modifying workload under monitor storms; smc additionally
// applies its SMCRewrites self-modification schedule through
// Image.RewriteStore, mid-run, in both policies.
func TestRepatchStormWorkloads(t *testing.T) {
	names := append(progs.Names(), "smc")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := progs.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range patchVariants {
				full := buildStorm(t, p.Source, v.plan, false)
				incr := buildStorm(t, p.Source, v.plan, true)
				script := genStormScript(rand.New(rand.NewSource(77)), full.m, 10)
				if name == "smc" {
					for _, rw := range progs.SMCRewrites(1) {
						script = append(script, repatchOp{
							After: rw.AfterStores, Kind: 'w',
							Func: rw.Func, Ordinal: rw.Ordinal, Delta: rw.DeltaOff,
						})
					}
					sort.Slice(script, func(i, j int) bool { return script[i].After < script[j].After })
				}
				runStorm(t, full, script, p.Fuel)
				runStorm(t, incr, script, p.Fuel)
				compareStorm(t, full, incr)
				// After the storm the engine must still prove itself
				// sound under its surviving dependence map.
				for _, sr := range []*stormRun{full, incr} {
					if vs := sr.img.Verify(); len(vs) != 0 {
						t.Errorf("%s: post-storm image fails re-verification: %v", v.name, vs[0])
					}
				}
				if name == "smc" && v.name != "unopt" {
					if incr.img.Stats.Rewrites != len(progs.SMCRewrites(1)) {
						t.Errorf("%s: applied %d rewrites, want %d",
							v.name, incr.img.Stats.Rewrites, len(progs.SMCRewrites(1)))
					}
				}
				if t.Failed() {
					t.Fatalf("%s/%s diverged", name, v.name)
				}
			}
		})
	}
}

// TestDifferentialWorkloads runs the full differential comparison over
// the five paper benchmark workloads with pre-installed monitors.
func TestDifferentialWorkloads(t *testing.T) {
	for _, name := range progs.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := progs.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			const workloadFuel = 400_000_000
			muts := make([]*machineUnderTest, len(patchVariants))
			for vi, v := range patchVariants {
				mut := build(t, p.Source, v.plan)
				for _, r := range monitorRanges(mut.m) {
					if err := mut.w.InstallMonitor(r.BA, r.EA); err != nil {
						t.Fatal(err)
					}
				}
				if err := mut.m.Run(workloadFuel); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				muts[vi] = mut
			}
			unopt, intra, inter := muts[0], muts[1], muts[2]
			compare(t, unopt, intra)
			compare(t, unopt, inter)
			for vi, opt := range []*machineUnderTest{intra, inter} {
				if opt.w.ElideFallbacks != 0 {
					t.Errorf("%s: %d elide fallbacks without mid-run updates",
						patchVariants[vi+1].name, opt.w.ElideFallbacks)
				}
				// The optimizer must actually optimize something on real
				// workloads, or the ablation measures nothing.
				if opt.res.EliminatedChecks+opt.res.FastChecks == 0 {
					t.Errorf("%s optimizer had no effect on this workload", patchVariants[vi+1].name)
				}
			}
			// The acceptance criterion: interprocedural analysis never
			// elides fewer checks than the intraprocedural baseline, and
			// a dependence map ships with every interproc patch.
			if inter.res.EliminatedChecks < intra.res.EliminatedChecks {
				t.Errorf("interproc elides %d < intraproc %d",
					inter.res.EliminatedChecks, intra.res.EliminatedChecks)
			}
			if inter.res.EliminatedIntra != intra.res.EliminatedChecks {
				t.Errorf("EliminatedIntra = %d, want %d",
					inter.res.EliminatedIntra, intra.res.EliminatedChecks)
			}
			if inter.res.DepMap == nil || len(inter.res.DepMap.Sites) == 0 {
				t.Error("interproc patch must ship a dependence map")
			}
		})
	}
}
