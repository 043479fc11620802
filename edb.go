// Package edb is a faithful reproduction, as a Go library, of the
// system described in:
//
//	Robert Wahbe. Efficient Data Breakpoints.
//	ASPLOS V, October 1992.
//
// It provides everything the paper describes, built on a simulated
// 40 MHz SPARCstation-2-class machine with its own compiler toolchain:
//
//   - A write monitor service (WMS) with the paper's §2 interface —
//     InstallMonitor / RemoveMonitor / MonitorNotification — in all four
//     §3 implementation strategies: NativeHardware monitor registers,
//     VirtualMemory page protection, TrapPatch, and CodePatch.
//   - A source-level debugger (Session) that sets named data breakpoints
//     on compiled mini-C programs over any strategy.
//   - The paper's full two-phase simulation experiment: event-trace
//     generation over five synthesised benchmark workloads, monitor
//     session discovery, a one-pass counting simulator, the §7
//     analytical models, and renderers for Tables 1–4 and Figures 7–9.
//
// Quick start — watch a global under the paper's preferred strategy:
//
//	session, _ := edb.Launch(src, edb.CodePatch, 0)
//	session.BreakOnData("counter")
//	session.Run(10_000_000)
//	fmt.Print(session.Report())
//
// Reproduce the paper's evaluation:
//
//	results, _ := edb.RunExperiment(edb.ExperimentConfig{})
//	edb.WriteReport(os.Stdout, results)
//
// # Observability
//
// Every pipeline phase can stream spans, metrics, and progress
// callbacks with zero cost when disabled:
//
//	tr, ms := edb.NewTracer(0), edb.NewMetrics()
//	cfg := edb.ExperimentConfig{Tracer: tr, Metrics: ms}
//	results, _ := edb.RunExperimentContext(ctx, cfg)
//	tr.WriteChromeTrace(f)         // load in Perfetto
//	ms.WritePrometheus(os.Stdout)  // Prometheus text format
//
// # Errors
//
// Failures carry typed errors; use errors.As instead of string
// matching:
//
//	results, err := edb.RunExperiment(cfg)
//	var re *edb.RunError
//	if errors.As(err, &re) {
//		for _, f := range re.Failures {
//			log.Printf("%s failed: %v", f.Program, f.Err)
//		}
//	}
//	var we *edb.WorkerError
//	if errors.As(err, &we) {
//		log.Printf("panic in %s:\n%s", we.Program, we.Stack)
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package edb

import (
	"context"
	"io"

	"edb/internal/arch"
	"edb/internal/calib"
	"edb/internal/debug"
	"edb/internal/exp"
	"edb/internal/fault"
	"edb/internal/model"
	"edb/internal/obsv"
	"edb/internal/progs"
	"edb/internal/report"
)

// Addr is a virtual address in the simulated 32-bit machine.
type Addr = arch.Addr

// Range is a half-open address range [BA, EA) — the paper's write
// monitor descriptor.
type Range = arch.Range

// Strategy selects a WMS implementation.
type Strategy = debug.Strategy

// The four strategies of §3/§7, plus the statically optimized CodePatch
// variant.
const (
	// NativeHardware uses simulated monitor registers (four of them, as
	// on 1992 hardware); installs beyond the register budget fail.
	NativeHardware = debug.NativeHardware
	// VirtualMemory write-protects pages holding monitors and fields the
	// resulting faults.
	VirtualMemory = debug.VirtualMemory
	// TrapPatch replaces every store with a trap at compile time.
	TrapPatch = debug.TrapPatch
	// CodePatch inserts an inline check call before every store at
	// compile time — the paper's recommended strategy.
	CodePatch = debug.CodePatch
	// CodePatchOpt is CodePatch with the static check-optimization plan:
	// dominance-based check elimination plus §9's loop optimization
	// (preliminary checks hoisted to loop preheaders). Delivers the same
	// notifications as CodePatch at lower per-write cost.
	CodePatchOpt = debug.CodePatchOpt
)

// Strategies lists all five.
var Strategies = debug.Strategies

// Session is a live debugging session over a compiled mini-C program.
type Session = debug.Session

// Breakpoint is an installed data breakpoint.
type Breakpoint = debug.Breakpoint

// Hit is a recorded data-breakpoint notification.
type Hit = debug.Hit

// Page sizes for the VirtualMemory strategy.
const (
	PageSize4K = arch.PageSize4K
	PageSize8K = arch.PageSize8K
)

// Launch compiles a mini-C program, applies the strategy's compile-time
// instrumentation, and returns a ready debugging session. pageSize is
// PageSize4K or PageSize8K (0 selects 4K) and matters only for
// VirtualMemory.
//
// Launch is the positional form kept for compatibility; new code
// should prefer LaunchOpts, which replaces the magic pageSize argument
// with functional options.
func Launch(src string, strat Strategy, pageSize int) (*Session, error) {
	return LaunchOpts(src, strat, WithPageSize(pageSize))
}

// Option configures LaunchOpts.
type Option func(*debug.LaunchConfig)

// WithPageSize sets the machine page size (PageSize4K or PageSize8K;
// 0 selects 4K). It matters only for the VirtualMemory strategy.
func WithPageSize(n int) Option {
	return func(c *debug.LaunchConfig) { c.PageSize = n }
}

// WithObserver streams launch and run spans (compile, patch, assemble,
// attach, run) into tr. A nil tracer is the disabled path and costs
// nothing.
func WithObserver(tr *Tracer) Option {
	return func(c *debug.LaunchConfig) { c.Obs = tr }
}

// WithFaultPlan activates a chaos-injection plan (process-wide; see
// internal/fault) before the launch pipeline runs, so the plan's rules
// apply to this session's compile and execution.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *debug.LaunchConfig) { c.FaultPlan = p }
}

// LaunchOpts is Launch with functional options:
//
//	session, err := edb.LaunchOpts(src, edb.VirtualMemory,
//		edb.WithPageSize(edb.PageSize8K),
//		edb.WithObserver(tr))
//
// With no options it is identical to Launch(src, strat, 0).
func LaunchOpts(src string, strat Strategy, opts ...Option) (*Session, error) {
	var c debug.LaunchConfig
	for _, opt := range opts {
		opt(&c)
	}
	return debug.LaunchWith(src, strat, c)
}

// Timings is a timing profile for the analytical models (Table 2).
type Timings = model.Timings

// PaperTimings is the paper's published SPARCstation 2 profile.
var PaperTimings = model.Paper

// ExperimentConfig parameterises a full reproduction run. Workers
// bounds how many benchmarks are compiled, traced, and analysed
// concurrently (0 = GOMAXPROCS); results — float summaries included —
// are bit-identical for every worker count.
type ExperimentConfig = exp.Config

// ProgramResult is one benchmark's aggregated experiment output.
type ProgramResult = exp.ProgramResult

// RunExperiment executes the paper's complete evaluation pipeline over
// the five benchmark workloads (or the subset configured). Benchmarks
// fan out over a bounded worker pool (ExperimentConfig.Workers), and
// compile + trace artifacts are cached per (benchmark, scale) within
// the process, so repeated runs — alternative timing profiles, REPL
// sessions, benchmark harnesses — skip phase 1 entirely.
func RunExperiment(cfg ExperimentConfig) ([]*ProgramResult, error) {
	return exp.Run(cfg)
}

// RunExperimentContext is RunExperiment under an explicit context.
// Cancellation stops claiming new benchmarks and interrupts retry
// backoff; benchmarks already past their last context check run to
// completion.
func RunExperimentContext(ctx context.Context, cfg ExperimentConfig) ([]*ProgramResult, error) {
	return exp.RunContext(ctx, cfg)
}

// ResetExperimentCache drops the per-process compile/trace cache used
// by RunExperiment. Long-running hosts can call this to bound memory;
// it is never required for correctness.
func ResetExperimentCache() { exp.ResetCache() }

// WriteReport renders every table and figure of §8 to w.
func WriteReport(w io.Writer, results []*ProgramResult) {
	report.All(w, results, model.Paper)
}

// WriteReportWithTimings renders the report under an alternative timing
// profile's Table 2.
func WriteReportWithTimings(w io.Writer, results []*ProgramResult, t Timings) {
	report.All(w, results, t)
}

// BenchmarkNames lists the five workload names in paper order
// ("gcc", "ctex", "spice", "qcd", "bps").
func BenchmarkNames() []string { return progs.Names() }

// BenchmarkSource returns the generated mini-C source of a benchmark at
// the given scale, for inspection or standalone compilation.
func BenchmarkSource(name string, scale int) (string, error) {
	p, err := progs.ByName(name, scale)
	if err != nil {
		return "", err
	}
	return p.Source, nil
}

// HostTimings holds host-measured software timing variables.
type HostTimings = calib.HostTimings

// MeasureHostTimings reruns the paper's Appendix A.5 protocol against
// this library's WMS data structure on the host CPU.
func MeasureHostTimings() HostTimings { return calib.Measure() }

// HostProfile builds a timing profile from host measurements, scaling
// the paper's OS/hardware service costs by serviceSpeedup.
func HostProfile(h HostTimings, serviceSpeedup float64) Timings {
	return calib.HostProfile(h, serviceSpeedup)
}

// Tracer is the span/event collector of the observability layer: a
// ring-buffered, allocation-conscious recorder of pipeline phases.
// Wire one into ExperimentConfig.Tracer or WithObserver, then export
// with WriteText (human timeline) or WriteChromeTrace (Perfetto). A nil
// *Tracer is valid everywhere and records nothing.
type Tracer = obsv.Tracer

// NewTracer builds a span collector holding up to capacity records
// (0 = a generous default); when full, the oldest records are dropped
// and counted.
func NewTracer(capacity int) *Tracer { return obsv.NewTracer(capacity) }

// Span is one open span returned by Tracer.StartSpan.
type Span = obsv.Span

// SpanRecord is one completed span or instant event in a Tracer.
type SpanRecord = obsv.Record

// Metrics is the counter/gauge/histogram registry of the observability
// layer. Wire one into ExperimentConfig.Metrics, then export with
// WritePrometheus or read programmatically via Snapshot.
type Metrics = obsv.Metrics

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obsv.NewMetrics() }

// MetricsSnapshot is a point-in-time copy of every registered metric,
// from Metrics.Snapshot.
type MetricsSnapshot = obsv.Snapshot

// Observer receives live pipeline progress callbacks (phase
// started/finished, replay events/sec, N-of-M benchmarks finished).
// Wire an implementation into ExperimentConfig.Observer.
type Observer = exp.Observer

// WorkerError is a benchmark worker panic contained and converted into
// an error. Recover it with errors.As:
//
//	var we *edb.WorkerError
//	if errors.As(err, &we) { log.Printf("panic in %s", we.Program) }
type WorkerError = exp.WorkerError

// RunError aggregates per-benchmark failures from a KeepGoing
// experiment run. Recover it with errors.As:
//
//	var re *edb.RunError
//	if errors.As(err, &re) { ... re.Failures ... }
type RunError = exp.RunError

// ProgramFailure names one benchmark's terminal error inside a
// RunError.
type ProgramFailure = exp.ProgramFailure

// FaultPlan is a deterministic chaos-injection plan (see
// internal/fault); activate one per process via WithFaultPlan or
// fault.Activate to exercise failure paths.
type FaultPlan = fault.Plan

// FaultRule is one site/key/kind rule inside a FaultPlan.
type FaultRule = fault.Rule

// NewFaultPlan builds a chaos plan from a seed and rules.
func NewFaultPlan(seed int64, rules ...FaultRule) *FaultPlan {
	return fault.NewPlan(seed, rules...)
}

// BreakState describes why Session.RunUntilBreak returned.
type BreakState = debug.BreakState

// Break states: a data breakpoint fired (the machine is suspended right
// after the monitored store), the program exited, or the instruction
// budget ran out.
const (
	Broke     = debug.Broke
	Exited    = debug.Exited
	OutOfFuel = debug.OutOfFuel
)
