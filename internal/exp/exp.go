// Package exp orchestrates the paper's full simulation experiment
// (Figure 1): for each benchmark program it compiles the mini-C source,
// traces one run (phase 1), discovers every monitor session, replays the
// trace through the counting simulator (phase 2), applies the §7
// analytical models under a timing profile, and aggregates the
// statistics behind every table and figure of §8.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	rtdebug "runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edb/internal/fault"
	"edb/internal/model"
	"edb/internal/obsv"
	"edb/internal/progs"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/stats"
	"edb/internal/trace"
)

// Config parameterises one experiment run.
type Config struct {
	// Scale multiplies workload run length (1 = default).
	Scale int
	// Timings selects the timing profile (zero value: model.Paper).
	Timings model.Timings
	// Programs restricts the benchmark set (nil = all five).
	Programs []string
	// Workers bounds how many benchmarks are compiled, traced, and
	// analysed concurrently. 0 (or negative) defaults to GOMAXPROCS;
	// 1 runs them one after another, in Programs order, on one pool
	// goroutine. Results are deterministic — ordered by Programs
	// position, with Summaries bit-identical — regardless of the
	// worker count.
	Workers int

	// KeepGoing turns the pipeline from fail-fast into gracefully
	// degrading: instead of cancelling the pool on the first failure,
	// every benchmark is attempted, failed programs come back as
	// placeholder ProgramResults carrying their error (Err != nil,
	// rendered as n/a by internal/report), and Run returns the partial
	// results alongside a *RunError aggregating the failures.
	KeepGoing bool
	// Retries bounds how many times one benchmark is re-attempted after
	// a failure classified transient (fault.IsTransient); 0 disables
	// retry. The pipeline is deterministic, so a successful retry is
	// bit-identical to a run that never faulted.
	Retries int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// attempt and is capped at 8x. Zero defaults to 2ms (kept tiny: the
	// "remote service" being backed off is an in-process pipeline).
	RetryBackoff time.Duration
	// Gate, when non-nil, is the admission hook: one weight unit is
	// acquired per benchmark before its pipeline runs (retries
	// included) and released when it finishes. A long-running host —
	// the edb-serve daemon — shares one gate across every concurrent
	// Run so the total in-flight pipeline work stays bounded no matter
	// how many requests arrive; an Acquire rejection (for example
	// ErrGateOverloaded from a full queue) fails the benchmark with
	// that error. Nil admits everything.
	Gate Gate

	// Tracer, when non-nil, collects a span for every phase boundary
	// of the pipeline — per-benchmark compile, assemble, tracegen,
	// session discovery, replay (with the sim engine span), model
	// evaluation — plus instant events for cache hits/misses, retries,
	// contained panics, and chaos-fault firings. Export the collected
	// stream with the obsv exporters (text timeline, Chrome
	// trace_event JSON for Perfetto, JSONL). Nil disables span
	// collection at zero cost.
	Tracer *obsv.Tracer
	// Metrics, when non-nil, receives pipeline counters, gauges, and
	// histograms (cache hit/miss, retries, worker panics, per-phase
	// wall-time histograms, replay events/sec). Nil disables at zero
	// cost.
	Metrics *obsv.Metrics
	// Observer, when non-nil, receives live progress callbacks (phase
	// started/finished, N-of-M benchmarks, replay events/sec feed).
	// Implementations must be concurrency-safe when Workers > 1. Nil
	// disables at zero cost.
	Observer Observer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Scale < 1 {
		out.Scale = 1
	}
	if out.Timings == (model.Timings{}) {
		out.Timings = model.Paper
	}
	if len(out.Programs) == 0 {
		out.Programs = progs.Names()
	}
	if out.Workers < 1 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Retries < 0 {
		out.Retries = 0
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 2 * time.Millisecond
	}
	return out
}

// WorkerError is a worker panic converted into an error: the pipeline
// contains panics (a chaos injection, or a genuine bug in one
// benchmark's compile/trace/replay) instead of letting one goroutine
// kill the whole process.
type WorkerError struct {
	// Program is the benchmark whose pipeline panicked.
	Program string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

// Error implements the error interface.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("exp: %s: worker panic: %v", e.Program, e.Value)
}

// Unwrap exposes the panic value's error chain (if the panic value was
// an error), so errors.Is/As — and fault.IsInjected — see through the
// containment. An injected Panic-kind fault deliberately does NOT
// classify as transient, so contained panics are never retried.
func (e *WorkerError) Unwrap() error {
	switch v := e.Value.(type) {
	case error:
		return v
	case *fault.PanicValue:
		return v.Err
	default:
		return nil
	}
}

// ProgramFailure names one benchmark's terminal error in a KeepGoing
// run.
type ProgramFailure struct {
	Program string
	Err     error
}

// RunError aggregates the per-program failures of a KeepGoing run.
// Run returns it alongside the partial results; callers that only care
// whether everything succeeded can treat it as an ordinary error.
type RunError struct {
	Failures []ProgramFailure
}

// Error implements the error interface.
func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exp: %d of the configured benchmarks failed:", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %s: %v", f.Program, f.Err)
	}
	return b.String()
}

// Failed reports whether program is among the recorded failures.
func (e *RunError) Failed(program string) bool {
	for _, f := range e.Failures {
		if f.Program == program {
			return true
		}
	}
	return false
}

// SessionOutcome is the per-session result: its counting variables and
// the modelled relative overhead per strategy.
type SessionOutcome struct {
	Session  *sessions.Session
	Counting sim.Counting
	// Relative[s] is the session's relative overhead under strategy s.
	Relative [model.NumStrategies]float64
}

// ProgramResult aggregates one benchmark's results.
type ProgramResult struct {
	Program string

	// Err is non-nil only on a placeholder result from a KeepGoing run:
	// the benchmark's pipeline failed terminally and every other field is
	// zero. internal/report renders such rows as n/a.
	Err error

	BaseSeconds float64
	BaseCycles  uint64
	Instret     uint64
	TotalWrites uint64

	// SessionCounts tallies kept (≥1 hit) sessions per type: Table 1.
	SessionCounts [sessions.NumTypes]int
	// Kept lists the surviving sessions with their outcomes.
	Kept []SessionOutcome
	// Discarded counts zero-hit sessions dropped per the paper's rule.
	Discarded int

	// Mean counting variables over kept sessions: Table 3.
	MeanInstalls, MeanHits, MeanMisses float64
	MeanProtects, MeanActivePageMiss   [2]float64
	// Summaries per strategy over the kept sessions' relative overheads:
	// Table 4 / Figures 7-9.
	Summaries [model.NumStrategies]stats.Summary
	// BreakdownMean is the mean fraction of overhead attributed to each
	// timing variable, per strategy (§8's "where the time was spent").
	BreakdownMean [model.NumStrategies]map[string]float64

	// Expansion is CodePatch's code-size increase (§8).
	Expansion float64
	// ExpansionOpt is the optimized patcher's code-size increase: the
	// ablation row of the expansion table.
	ExpansionOpt float64
	// Stores / TotalInstructions of the unpatched image.
	StoreFraction float64

	// Static check-optimization totals for this benchmark (counts of
	// stores whose check was elided / downgraded, and of hoisted
	// preliminary checks inserted in loop preheaders).
	EliminatedChecks, FastChecks, HoistedChecks int
	// EliminatedIntra is the single-function ablation: how many checks
	// the planner elides with the interprocedural layer disabled. The
	// gap to EliminatedChecks is what the call-graph summaries buy.
	EliminatedIntra int
	// Dynamic fractions of traced writes per optimized check class;
	// these feed model.Counting for the CPOpt strategy.
	CPOptElideFrac, CPOptFastFrac float64
}

// RelativeSamples returns the kept sessions' relative overheads for one
// strategy.
func (r *ProgramResult) RelativeSamples(s model.Strategy) []float64 {
	out := make([]float64, len(r.Kept))
	for i := range r.Kept {
		out[i] = r.Kept[i].Relative[s]
	}
	return out
}

// runProgram executes the full pipeline for one benchmark, with the
// run's observation bundle threaded through (nil = disabled). The
// compile + trace half (phase 1) is served from the package cache keyed
// by (benchmark, scale): repeated runs — the REPL, cmd/edb-experiment
// invocations in one process, benchmark harnesses — pay for compilation
// and tracing once, and only re-run the analysis under the requested
// timing profile. Cancellation is observed between the pipeline's
// phases (before the compile/trace build and before the analysis
// pass), so a deadline bounds the run to roughly one phase's
// granularity.
func runProgram(ctx context.Context, p progs.Program, timings model.Timings, o *obs) (*ProgramResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", p.Name, err)
	}
	art, err := cachedArtifacts(p, o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", p.Name, err)
	}
	res, err := analyze(art.tr, art.pp, timings, art.elideFrac, art.fastFrac, o)
	if err != nil {
		return nil, err
	}
	res.StoreFraction = art.storeFraction
	res.Expansion = art.expansion
	res.ExpansionOpt = art.expansionOpt
	res.EliminatedChecks = art.eliminated
	res.EliminatedIntra = art.eliminatedIntra
	res.FastChecks = art.fastChecks
	res.HoistedChecks = art.hoisted
	return res, nil
}

// Analyze runs phase 2 and the models over an existing trace. Without
// the compile-side artifacts the CP-opt check-class fractions are
// unknown, so the CPOpt column degenerates to CP; Run threads the real
// fractions through.
func Analyze(tr *trace.Trace, timings model.Timings) (*ProgramResult, error) {
	return analyze(tr, nil, timings, 0, 0, nil)
}

// analyze is Analyze with the trace's precomputed replay prepass (nil
// makes the replay engine compute it), the dynamic CP-opt check-class
// fractions of the traced program's writes, and the run's observation
// bundle.
func analyze(tr *trace.Trace, pp *sim.Prepass, timings model.Timings, elideFrac, fastFrac float64, o *obs) (*ProgramResult, error) {
	ps := o.phase(tr.Program, PhaseDiscover)
	set := sessions.Discover(tr)
	ps.done(nil)
	ps = o.phase(tr.Program, PhaseReplay)
	out, err := sim.RunWithOptions(tr, set, sim.Options{Obs: o.simObs(), Prepass: pp})
	ps.doneEvents(err, int64(len(tr.Events)))
	if err != nil {
		return nil, fmt.Errorf("exp: simulating %s: %w", tr.Program, err)
	}
	ps = o.phase(tr.Program, PhaseModel)
	defer ps.done(nil)
	res := &ProgramResult{
		Program:        tr.Program,
		BaseSeconds:    tr.BaseSeconds(),
		BaseCycles:     tr.BaseCycles,
		Instret:        tr.Instret,
		TotalWrites:    out.TotalWrites,
		CPOptElideFrac: elideFrac,
		CPOptFastFrac:  fastFrac,
	}
	base := tr.BaseSeconds()

	keep := out.FilterZeroHit()
	res.Discarded = len(set.Sessions) - len(keep)
	for si := range res.BreakdownMean {
		res.BreakdownMean[si] = make(map[string]float64)
	}
	for _, i := range keep {
		s := &set.Sessions[i]
		c := out.PerSession[i]
		res.SessionCounts[s.Type]++
		oc := SessionOutcome{Session: s, Counting: c}
		mc := toModelCounting(c)
		mc.CPOptElideFrac, mc.CPOptFastFrac = elideFrac, fastFrac
		for _, strat := range model.Strategies {
			ov := model.Estimate(strat, mc, timings)
			oc.Relative[strat] = ov.Relative(base)
			for name, frac := range model.BreakdownFractions(model.Breakdown(strat, mc, timings)) {
				res.BreakdownMean[strat][name] += frac
			}
		}
		res.Kept = append(res.Kept, oc)

		res.MeanInstalls += float64(c.Installs)
		res.MeanHits += float64(c.Hits)
		res.MeanMisses += float64(c.Misses)
		for psi := 0; psi < 2; psi++ {
			res.MeanProtects[psi] += float64(c.VM[psi].Protects)
			res.MeanActivePageMiss[psi] += float64(c.VM[psi].ActivePageMiss)
		}
	}
	if n := float64(len(res.Kept)); n > 0 {
		res.MeanInstalls /= n
		res.MeanHits /= n
		res.MeanMisses /= n
		for psi := 0; psi < 2; psi++ {
			res.MeanProtects[psi] /= n
			res.MeanActivePageMiss[psi] /= n
		}
		for si := range res.BreakdownMean {
			for name := range res.BreakdownMean[si] {
				res.BreakdownMean[si][name] /= n
			}
		}
	}
	for _, strat := range model.Strategies {
		res.Summaries[strat] = stats.Summarize(res.RelativeSamples(strat))
	}
	return res, nil
}

func toModelCounting(c sim.Counting) model.Counting {
	return model.Counting{
		Installs: c.Installs,
		Removes:  c.Removes,
		Hits:     c.Hits,
		Misses:   c.Misses,
		Protects: [2]uint64{c.VM[0].Protects, c.VM[1].Protects},
		Unprotects: [2]uint64{
			c.VM[0].Unprotects, c.VM[1].Unprotects,
		},
		ActivePageMiss: [2]uint64{
			c.VM[0].ActivePageMiss, c.VM[1].ActivePageMiss,
		},
	}
}

// runProtected runs one benchmark's pipeline under the context,
// converting a panic anywhere in the pipeline (a chaos injection, or a
// genuine bug in one benchmark's compile/trace/replay) into a typed
// *WorkerError instead of letting one goroutine kill the process.
func runProtected(ctx context.Context, p progs.Program, timings model.Timings, o *obs) (res *ProgramResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &WorkerError{Program: p.Name, Value: v, Stack: rtdebug.Stack()}
		}
	}()
	return runProgram(ctx, p, timings, o)
}

// runWithRetry wraps runProtected in the bounded-retry policy: only
// failures classified transient (fault.IsTransient) are retried, at
// most c.Retries times, with a per-attempt backoff that doubles from
// c.RetryBackoff and is capped at 8x. The sleep is context-aware.
func runWithRetry(ctx context.Context, c *Config, p progs.Program, o *obs) (*ProgramResult, error) {
	var err error
	for attempt := 0; ; attempt++ {
		var res *ProgramResult
		res, err = runProtected(ctx, p, c.Timings, o)
		if err == nil {
			return res, nil
		}
		var we *WorkerError
		if errors.As(err, &we) {
			o.workerPanic(p.Name)
		}
		if !fault.IsTransient(err) {
			return nil, err
		}
		if attempt >= c.Retries {
			return nil, fmt.Errorf("exp: %s: giving up after %d attempts: %w",
				p.Name, attempt+1, err)
		}
		o.retry(p.Name, attempt+1, err)
		// Cap the doubling shift before shifting: Retries is caller
		// data, and a shift past 62 would overflow Duration into a
		// negative (= zero-length) sleep instead of the 8x cap.
		shift := uint(attempt)
		if shift > 3 {
			shift = 3
		}
		backoff := c.RetryBackoff << shift
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("exp: %s: %w", p.Name, ctx.Err())
		case <-timer.C:
		}
	}
}

// Run executes the experiment for every configured program, fanning
// the benchmarks out over a bounded pool of Config.Workers goroutines.
//
// Determinism: results are returned in Programs order (progs.Names()
// order by default) no matter how the scheduler interleaves workers —
// each worker writes only its claimed index — and each ProgramResult is
// computed by exactly one worker running the same sequential per-
// benchmark pipeline, so every field, float summaries included, is
// bit-identical across worker counts. This holds in KeepGoing mode
// too: faults fire by per-benchmark invocation count, not by wall
// clock or scheduling, so which programs fail — and the surviving
// results — are also worker-count-independent.
//
// Errors, fail-fast mode (KeepGoing=false): the first failure (lowest
// Programs index among recorded failures) is returned and cancels the
// pool — workers finish the benchmark they are on and claim no further
// work. All workers have exited by the time Run returns.
//
// Errors, KeepGoing mode: every benchmark is attempted; failed
// programs come back as placeholder results (Err != nil) in their
// Programs slot, and Run returns the partial results together with a
// *RunError listing the failures in Programs order.
//
// Run is RunContext under context.Background().
func Run(cfg Config) ([]*ProgramResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a caller-supplied context. ctx cancels or
// deadlines the whole run (nil means context.Background());
// cancellation is observed between pipeline phases, so a deadline
// bounds the run to roughly one phase's granularity.
func RunContext(ctx context.Context, cfg Config) ([]*ProgramResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := cfg.withDefaults()
	n := len(c.Programs)
	out := make([]*ProgramResult, n)
	errs := make([]error, n)

	o := newObs(&c, n)
	if o != nil {
		// Surface chaos-fault firings through this run's sinks. The
		// hook is process-global (like fault plans themselves); the
		// previous hook is restored on return.
		prev := fault.SetOnFire(o.faultFired)
		defer fault.SetOnFire(prev)
	}

	runOne := func(i int) error {
		p, err := progs.ByName(c.Programs[i], c.Scale)
		if err != nil {
			o.benchmarkDone(c.Programs[i], err)
			return err
		}
		if c.Gate != nil {
			release, err := c.Gate.Acquire(ctx, 1)
			if err != nil {
				err = fmt.Errorf("exp: %s: admission: %w", p.Name, err)
				o.benchmarkDone(p.Name, err)
				return err
			}
			defer release()
		}
		ps := o.phase(p.Name, PhaseBenchmark)
		out[i], err = runWithRetry(ctx, &c, p, o)
		ps.done(err)
		o.benchmarkDone(p.Name, err)
		return err
	}

	var (
		next     atomic.Int64 // next unclaimed Programs index
		canceled atomic.Bool  // set on first error (fail-fast only)
		wg       sync.WaitGroup
	)
	for w := 0; w < min(c.Workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Once the run is over, stop claiming work: KeepGoing
				// mode records the cancellation against the unclaimed
				// benchmarks below instead of attempting each one just
				// to watch it fail its first context check.
				i := int(next.Add(1) - 1)
				if i >= n || canceled.Load() || ctx.Err() != nil {
					return
				}
				if err := runOne(i); err != nil {
					errs[i] = err
					if !c.KeepGoing {
						canceled.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if c.KeepGoing && ctx.Err() != nil {
		// Benchmarks never claimed because the context ended mid-run
		// still owe the caller a placeholder failure each.
		for i := range errs {
			if errs[i] == nil && out[i] == nil {
				errs[i] = fmt.Errorf("exp: %s: %w", c.Programs[i], ctx.Err())
			}
		}
	}

	if !c.KeepGoing {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			// Workers stop claiming as soon as the context ends, so a
			// mid-run cancellation can leave no per-benchmark error
			// behind; report it unless every result completed first.
			for _, r := range out {
				if r == nil {
					return nil, fmt.Errorf("exp: %w", err)
				}
			}
		}
		return out, nil
	}
	var re RunError
	for i, err := range errs {
		if err != nil {
			out[i] = &ProgramResult{Program: c.Programs[i], Err: err}
			re.Failures = append(re.Failures,
				ProgramFailure{Program: c.Programs[i], Err: err})
		}
	}
	if len(re.Failures) > 0 {
		return out, &re
	}
	return out, nil
}
