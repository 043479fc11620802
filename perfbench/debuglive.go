package main

// The debug-live workload: scripted debugger sessions over the five
// paper programs under code-opt. Each session launches its program,
// watches seeded globals and two seeded locals (a local watch installs
// and removes a monitor on every call of its function), toggles one
// store rewrite by +4 and back before the first continue, then
// continues from break to break until the program exits, swapping one
// watched global every 64 breaks. It is the only workload that runs
// patched code, the check path and the live re-patcher; tracegen and
// replay do not run.

import (
	"fmt"
	"sort"
	"time"

	"edb/internal/asm"
	"edb/internal/debug"
	"edb/internal/isa"
	"edb/internal/minic"
	"edb/internal/obsv"
	"edb/internal/progs"
)

const (
	// debugFuel is the instruction budget of one session, the
	// debugger command's default.
	debugFuel = 2_000_000_000
	// debugWarmups leading rounds are discarded.
	debugWarmups = 1
	// launchReps is how often a session launches its program: cold_ms
	// takes each program's fastest launch of the run, so a run needs
	// launches spread over it to catch the host at its least contended.
	// More launches per session made the process's peak resident set
	// jump by 3-6 MiB in half the runs.
	launchReps = 3
)

// debugSetup reads every program's symbol tables — the globals, locals
// and stores a script may name — from a compile and assemble of its
// source.
func debugSetup() ([]progs.Program, []*progSymbols, error) {
	ps := progs.All(1)
	var syms []*progSymbols
	for _, p := range ps {
		prog, err := minic.Compile(p.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("debug-live: compiling %s: %w", p.Name, err)
		}
		img, err := asm.Assemble(prog)
		if err != nil {
			return nil, nil, fmt.Errorf("debug-live: assembling %s: %w", p.Name, err)
		}
		s := &progSymbols{name: p.Name}
		for _, f := range prog.Funcs {
			for _, l := range f.Locals {
				s.locals = append(s.locals, localRef{fn: f.Name, name: l.Name})
			}
			n := 0
			for _, in := range f.Body {
				if in.Pseudo == asm.PNone && in.Op == isa.SW && !in.Implicit {
					s.stores = append(s.stores, storeRef{fn: f.Name, ordinal: n})
					n++
				}
			}
		}
		s.globals = dataSymbols(img)
		syms = append(syms, s)
	}
	return ps, syms, nil
}

// dataSymbols lists an image's data symbols by address (then name),
// whatever the map's order.
func dataSymbols(img *asm.Image) []string {
	var out []string
	for name := range img.Data {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := img.Data[out[i]].BA, img.Data[out[j]].BA
		return a < b || a == b && out[i] < out[j]
	})
	return out
}

// sessionStats is what one scripted session measured.
type sessionStats struct {
	launches                 []float64 // ms per launch
	runMS                    float64   // attach to exit
	instret                  uint64
	breaks, hits             int
	continues                []float64 // µs per continue
	watches, unwatches       []float64 // µs per call
	rewrites                 []float64 // ms per call
	installs, removes        int
	factsDropped, factsKept  uint64
	checks, elided, fastHits uint64
	demoted, stubFlips       int
	gc                       time.Duration // collections forced before the launches
}

// debugSession runs one script to the program's exit and checks the
// debuggee's behaviour.
func debugSession(out *outcome, p progs.Program, sc *script, tracer *obsv.Tracer) sessionStats {
	var st sessionStats
	sp := tracer.StartSpan("session")
	sp.Attr("program", p.Name)
	defer sp.End()
	// The session keeps the last launch, the only one traced.
	var s *debug.Session
	for i := 0; i < launchReps; i++ {
		st.gc += collect() // each launch starts from a collected heap
		cfg := debug.LaunchConfig{}
		if i == launchReps-1 {
			cfg.Obs = tracer
		}
		start := time.Now()
		var err error
		s, err = debug.LaunchWith(p.Source, debug.CodePatchOpt, cfg)
		st.launches = append(st.launches, ms(time.Since(start)))
		if err != nil {
			out.op(false, "debug-live: launching %s: %v", p.Name, err)
			return st
		}
	}
	start := time.Now()
	fail := func(format string, args ...any) sessionStats {
		st.runMS = ms(time.Since(start))
		out.op(false, "debug-live: %s: "+format, append([]any{p.Name}, args...)...)
		return st
	}
	eng := s.Engine()
	watched := []string{}
	scriptInstalls := 0
	watch := func(sym string) (err error) {
		d := timed(tracer, "watch", func() { _, err = s.Watch(sym) })
		st.watches = append(st.watches, d*1e3)
		if err == nil {
			watched = append(watched, sym)
			scriptInstalls++
		}
		return err
	}
	unwatch := func(name string) (err error) {
		d := timed(tracer, "unwatch", func() { err = s.Unwatch(name) })
		st.unwatches = append(st.unwatches, d*1e3)
		return err
	}
	for _, g := range sc.globals {
		if err := watch(g); err != nil {
			return fail("watch %s: %v", g, err)
		}
	}
	for _, l := range sc.locals {
		if _, err := s.BreakOnLocal(l.fn, l.name); err != nil {
			return fail("watch local %s: %v", l, err)
		}
	}
	for _, delta := range []int32{4, -4} {
		var err error
		d := timed(tracer, "rewrite", func() { err = s.RewriteStore(sc.rewrite.fn, sc.rewrite.ordinal, delta) })
		st.rewrites = append(st.rewrites, d)
		if err != nil {
			return fail("rewrite %s#%d by %d: %v", sc.rewrite.fn, sc.rewrite.ordinal, delta, err)
		}
	}

	// The continues are thousands per session: one span covers them.
	run := tracer.StartSpan("continue-to-exit")
	defer run.End()
	fuel := uint64(debugFuel)
	locals := len(sc.locals) > 0
	stepping := true
	next := 0 // next swapIn candidate
	for {
		before := s.Machine.CPU.Instret
		t := time.Now()
		_, state, err := s.RunUntilBreak(min(fuelSlice, fuel))
		st.continues = append(st.continues, float64(time.Since(t))/1e3)
		ran := s.Machine.CPU.Instret - before
		st.instret += ran
		fuel -= min(ran, fuel)
		if err != nil {
			return fail("continue: %v", err)
		}
		if state == debug.Exited {
			break
		}
		if state == debug.OutOfFuel && fuel == 0 {
			return fail("out of fuel")
		}
		if state == debug.Broke && stepping {
			st.breaks++
			if st.breaks%swapEvery == 0 && len(sc.swapIn) > 0 && len(watched) > 0 {
				if err := unwatch(watched[0]); err != nil {
					return fail("unwatch %s: %v", watched[0], err)
				}
				watched = watched[1:]
				sym := sc.swapIn[next%len(sc.swapIn)]
				next++
				if !contains(watched, sym) {
					if err := watch(sym); err != nil {
						return fail("watch %s: %v", sym, err)
					}
				}
			}
		}
		// Caps: a local watch whose function is too hot is dropped, and
		// past maxBreaks the script drops every watch.
		var drop []string
		if stepping && st.breaks >= maxBreaks {
			drop = append(drop, watched...)
			watched, stepping = nil, false
		}
		if locals && (!stepping || eng.Stats.Installs-scriptInstalls > localInstallCap) {
			for _, l := range sc.locals {
				drop = append(drop, l.String())
			}
			locals = false
		}
		for _, name := range drop {
			if err := unwatch(name); err != nil {
				return fail("unwatch %s: %v", name, err)
			}
		}
	}
	st.runMS = ms(time.Since(start))
	st.hits = len(s.Hits())
	st.installs, st.removes = eng.Stats.Installs, eng.Stats.Removes
	st.demoted, st.stubFlips = eng.Stats.Demoted, eng.Stats.StubFlips
	w := eng.W
	st.factsDropped, st.factsKept = w.FactsDropped, w.FactsKept
	st.checks, st.elided, st.fastHits = w.Checks, w.Elided, w.FastHits

	checkDebuggee(out, p.Name, s.Machine.CPU.ExitCode, s.Output())
	v := eng.Verify()
	out.op(len(v) == 0, "debug-live: %s: Verify reports %d violations after the script", p.Name, len(v))
	return st
}

// checkDebuggee is a session's output check: watching and the toggled
// rewrite must leave the program's exit code and output as recorded.
func checkDebuggee(out *outcome, prog string, exit int32, output string) {
	rec := recordedDebuggees[prog]
	got := sha256Hex([]byte(output))
	out.op(exit == rec.exit && got == rec.outputSHA,
		"debug-live: %s exit %d output %s, recorded exit %d output %s", prog, exit, got, rec.exit, rec.outputSHA)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// debugRound runs one scripted session per program, each after a
// repetition of the set-up, and returns the sessions and the time of
// the set-ups and the collections they forced.
func debugRound(out *outcome, ps []progs.Program, syms []*progSymbols, setup *setupClock, seed int64, round int, tracer *obsv.Tracer) ([]sessionStats, time.Duration) {
	var all []sessionStats
	var aside time.Duration
	for i, p := range ps {
		d, err := setup.again()
		if err != nil {
			out.op(false, "debug-live: repeated set-up: %v", err)
		}
		aside += d
		sc := genScript(seed, round, syms[i])
		st := debugSession(out, p, &sc, tracer)
		aside += st.gc
		if seed == defaultSeed && round == 0 {
			rec := recordedRound0[p.Name]
			out.op(st.breaks == rec.breaks && st.hits == rec.hits,
				"debug-live: %s round 0: %d breaks %d hits, recorded %d and %d",
				p.Name, st.breaks, st.hits, rec.breaks, rec.hits)
		}
		all = append(all, st)
	}
	return all, aside
}

func sumOf(sts []sessionStats, f func(*sessionStats) float64) float64 {
	t := 0.0
	for i := range sts {
		t += f(&sts[i])
	}
	return t
}

func runDebugLive(cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	var ps []progs.Program
	var syms []*progSymbols
	setup, err := setUp(cfg, 1, func(rep int) error {
		p, s, err := debugSetup()
		if rep == 0 {
			ps, syms = p, s
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var sessions, plainRounds, tracedRounds []float64
	// launches pools every untraced launch of each program.
	launches := make([][]float64, len(ps))
	var traced [][]sessionStats
	var tracers []*obsv.Tracer
	var loopStart, deadline time.Time
	var aside time.Duration // set-ups and collections
	n := 0
	for round := 0; ; round++ {
		if round == debugWarmups {
			loopStart, deadline = time.Now(), cfg.deadline()
		}
		if round > debugWarmups && time.Now().After(deadline) && (!cfg.trace || len(traced) > 0) {
			break
		}
		on := cfg.trace && round >= debugWarmups && (round-debugWarmups)%2 == 1
		var tr *obsv.Tracer
		if on {
			tr = obsv.NewTracer(0)
		}
		t := time.Now()
		sts, skip := debugRound(out, ps, syms, setup, cfg.seed, round, tr)
		d := ms(time.Since(t) - skip)
		if round < debugWarmups {
			continue
		}
		aside += skip
		n += len(sts)
		if on {
			tracedRounds = append(tracedRounds, d)
			traced = append(traced, sts)
			tracers = append(tracers, tr)
			continue
		}
		plainRounds = append(plainRounds, d)
		for i := range sts {
			launches[i] = append(launches[i], sts[i].launches...)
		}
		sessions = append(sessions, sumOf(sts, func(s *sessionStats) float64 { return s.runMS }))
	}
	loop := (time.Since(loopStart) - aside).Seconds()
	if !cfg.trace {
		out.set("setup_s", setup.median())
		// A five-program launch, each program at its fastest over the
		// run. A launch is short and allocates heavily, and on a
		// shared host its time swings between two levels (about 1.6x
		// apart) as neighbours load the memory system, while a
		// register-bound loop holds steady. Contention only ever adds
		// time: of the estimators tried, the fastest launch moved
		// least with how contended the host was.
		cold := 0.0
		for _, xs := range launches {
			cold += fastest(xs)
		}
		out.set("cold_ms", cold)
		out.set("warm_ms", median(sessions))
		out.set("ops_per_s", float64(n)/loop)
		return out, nil
	}
	debugLedger(out, traced, tracers)
	if m := median(plainRounds); m > 0 {
		out.set("obsv.overhead_pct", 100*(median(tracedRounds)-m)/m)
	}
	return out, writeChrome(cfg, "debug-live", tracers[0])
}

// debugLedger files the traced rounds' per-layer metrics: the launch
// spans, the benchmark's timings of every debugger call, and the
// re-patching engine's and WMS's counters, each a per-round total
// (median over traced rounds) or a per-call median.
func debugLedger(out *outcome, rounds [][]sessionStats, tracers []*obsv.Tracer) {
	perRound := func(f func(*sessionStats) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, sumOf(r, f))
		}
		return median(xs)
	}
	pooled := func(f func(*sessionStats) []float64) float64 {
		var xs []float64
		for _, r := range rounds {
			for i := range r {
				xs = append(xs, f(&r[i])...)
			}
		}
		return median(xs)
	}
	spans := map[string]string{"launch": "debug.launch_ms", "compile": "minic.compile_ms",
		"patch": "codepatch.patch_ms", "assemble": "asm.assemble_ms", "attach": "debug.attach_ms"}
	for _, span := range []string{"launch", "compile", "patch", "assemble", "attach"} {
		var xs []float64
		for _, t := range tracers {
			xs = append(xs, spanTotals(t)[span].ms)
		}
		out.set(spans[span], median(xs))
	}
	runMS := perRound(func(s *sessionStats) float64 { return sumF(s.continues) / 1e3 })
	out.set("debug.run_ms", runMS)
	instret := perRound(func(s *sessionStats) float64 { return float64(s.instret) })
	if runMS > 0 {
		out.set("cpu.mips", instret/(runMS*1e3))
	}
	out.set("debug.breaks", perRound(func(s *sessionStats) float64 { return float64(s.breaks) }))
	out.set("debug.continue_us", pooled(func(s *sessionStats) []float64 { return s.continues }))
	out.set("codepatch.watch_us", pooled(func(s *sessionStats) []float64 { return s.watches }))
	out.set("codepatch.unwatch_us", pooled(func(s *sessionStats) []float64 { return s.unwatches }))
	out.set("codepatch.rewrite_ms", pooled(func(s *sessionStats) []float64 { return s.rewrites }))
	out.set("codepatch.installs", perRound(func(s *sessionStats) float64 { return float64(s.installs) }))
	out.set("codepatch.removes", perRound(func(s *sessionStats) float64 { return float64(s.removes) }))
	dropped := perRound(func(s *sessionStats) float64 { return float64(s.factsDropped) })
	scanned := perRound(func(s *sessionStats) float64 { return float64(s.factsDropped + s.factsKept) })
	out.set("codepatch.facts_scanned", scanned)
	if scanned > 0 {
		out.set("codepatch.facts_dropped_share", dropped/scanned)
	}
	out.set("codepatch.checks", perRound(func(s *sessionStats) float64 { return float64(s.checks) }))
	out.set("codepatch.elided", perRound(func(s *sessionStats) float64 { return float64(s.elided) }))
	out.set("codepatch.fast_hits", perRound(func(s *sessionStats) float64 { return float64(s.fastHits) }))
	out.set("codepatch.demoted", perRound(func(s *sessionStats) float64 { return float64(s.demoted) }))
	out.set("codepatch.stub_flips", perRound(func(s *sessionStats) float64 { return float64(s.stubFlips) }))
}

func sumF(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
