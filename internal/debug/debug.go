// Package debug provides the source-level debugging layer the paper's
// WMS exists to serve: named *data breakpoints* over any of the four
// strategies, resolved against the mini-C compiler's debug information.
//
// A Session owns a compiled debuggee, a machine, and a WMS backend; the
// user sets breakpoints on globals, function statics, locals, or raw
// address ranges, runs the program, and gets a log of monitor
// notifications attributed back to source functions — the paper's
// example of finding "pointer uses that are inadvertently modifying an
// otherwise unrelated data structure".
package debug

import (
	"fmt"
	"sort"
	"strings"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/core/nh"
	"edb/internal/core/trappatch"
	"edb/internal/core/vmwms"
	"edb/internal/core/wms"
	"edb/internal/fault"
	"edb/internal/hw"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/obsv"
)

// Strategy selects the WMS implementation backing a session.
type Strategy string

// The four strategies of the paper, by their §7 names, plus the
// statically optimized CodePatch variant.
const (
	NativeHardware Strategy = "hardware"
	VirtualMemory  Strategy = "vm"
	TrapPatch      Strategy = "trap"
	CodePatch      Strategy = "code"
	// CodePatchOpt is CodePatch with the static check-optimization plan
	// applied at patch time: dominated checks elided, loop-invariant
	// checks hoisted into preheaders (§9's loop optimization, done
	// statically). Notification behaviour is identical to CodePatch.
	CodePatchOpt Strategy = "code-opt"
)

// Strategies lists all backends.
var Strategies = []Strategy{NativeHardware, VirtualMemory, TrapPatch, CodePatch, CodePatchOpt}

// Backend is the common live-WMS surface (§2's interface; notifications
// are delivered through the session).
type Backend interface {
	InstallMonitor(ba, ea arch.Addr) error
	RemoveMonitor(ba, ea arch.Addr) error
	Stats() wms.Stats
}

// Hit is one recorded monitor notification, attributed to source.
type Hit struct {
	Breakpoint string
	BA, EA     arch.Addr
	PC         arch.Addr
	// Func is the function containing PC ("" if unknown).
	Func string
	// Value is the word just written at BA (data breakpoints deliver
	// after the write, so this is the new value).
	Value int32
}

// Breakpoint is one installed data breakpoint.
type Breakpoint struct {
	Name  string
	Range arch.Range
	Hits  int
	// Condition, when non-nil, filters hits: only writes for which it
	// returns true are counted and logged. old is the value before the
	// first hit was observed (initially the value at install time), new
	// the just-written value. This is the paper's "rules that trigger
	// debugging actions when certain conditions arise", applied to data.
	Condition func(old, new int32) bool

	lastValue int32
	hasLast   bool
}

// Session is one debugging session: program + machine + WMS backend.
type Session struct {
	Strategy Strategy
	Machine  *kernel.Machine
	Image    *asm.Image

	backend Backend
	// engine is the incremental re-patching engine, present only for the
	// CodePatch strategies: the session's monitor mutations run through
	// it (so its invalidation policy and accounting apply) and it exposes
	// live-text rewriting (RewriteStore).
	engine *codepatch.Image
	bps    map[string]*Breakpoint
	log    []Hit
	// MaxHits bounds the log (0 = unlimited).
	MaxHits int

	// Local-watchpoint state (see locals.go).
	locals      []*localWatch
	frameStack  []int
	frameHooked bool
	// LocalInstallFailures counts local-monitor installs rejected by the
	// backend (hardware register exhaustion).
	LocalInstallFailures int

	// obs receives run spans when the session was built by LaunchWith
	// with a tracer (nil otherwise — the free path).
	obs *obsv.Tracer
}

// LaunchConfig configures LaunchWith. The zero value gives the default
// page size, no observation and no fault plan.
type LaunchConfig struct {
	// PageSize is the machine page size (0 = arch.PageSize4K). It
	// matters only for the VirtualMemory strategy.
	PageSize int
	// Obs, when non-nil, receives launch and run spans (compile, patch,
	// assemble, attach, run). A nil tracer records nothing and costs a
	// nil check.
	Obs *obsv.Tracer
	// FaultPlan, when non-nil, is activated (process-wide — see
	// fault.Activate) before the launch pipeline runs, so chaos rules
	// apply to this session's compile and execution.
	FaultPlan *fault.Plan
}

// LaunchWith compiles src with the mini-C compiler, applies whatever
// compile-time patching the strategy requires, loads the image, and
// attaches the WMS backend, with observation spans around every launch
// phase and an optional fault plan.
func LaunchWith(src string, strat Strategy, c LaunchConfig) (*Session, error) {
	pageSize := c.PageSize
	if pageSize == 0 {
		pageSize = arch.PageSize4K
	}
	if c.FaultPlan != nil {
		fault.Activate(c.FaultPlan)
	}
	launch := c.Obs.StartSpan("launch")
	launch.Attr("strategy", string(strat))
	defer launch.End()
	sp := c.Obs.StartSpan("compile")
	prog, err := minic.Compile(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	var tpRes *trappatch.PatchResult
	var cpRes *codepatch.PatchResult
	sp = c.Obs.StartSpan("patch")
	switch strat {
	case TrapPatch:
		tpRes, err = trappatch.Patch(prog)
	case CodePatch:
		cpRes, err = codepatch.Patch(prog, nil)
	case CodePatchOpt:
		cpRes, err = codepatch.Patch(prog, analysis.PlanChecks(prog))
	case NativeHardware, VirtualMemory:
		// No compile-time transformation.
	default:
		err = fmt.Errorf("debug: unknown strategy %q", strat)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = c.Obs.StartSpan("assemble")
	img, err := asm.Assemble(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = c.Obs.StartSpan("attach")
	defer sp.End()
	m, err := kernel.NewMachine(img, pageSize)
	if err != nil {
		return nil, err
	}
	s := &Session{Strategy: strat, Machine: m, Image: img, bps: make(map[string]*Breakpoint), obs: c.Obs}
	notify := s.onHit
	switch strat {
	case NativeHardware:
		s.backend = nh.Attach(m, hw.NumShippingRegisters, notify)
	case VirtualMemory:
		s.backend = vmwms.Attach(m, notify)
	case TrapPatch:
		s.backend = trappatch.Attach(m, tpRes, notify)
	case CodePatch, CodePatchOpt:
		cw, err := codepatch.Attach(m, notify)
		if err != nil {
			return nil, err
		}
		cw.SetIncremental(true)
		s.backend = cw
		s.engine = codepatch.NewImage(prog, cpRes, m, cw)
	}
	return s, nil
}

// install and remove are the session's single monitor-mutation funnel:
// through the re-patching engine when one backs the session (so the
// incremental invalidation policy and RepatchStats see every debugger
// watch-set change, mid-run or not), directly at the backend otherwise.
func (s *Session) install(ba, ea arch.Addr) error {
	if s.engine != nil {
		return s.engine.InstallMonitor(ba, ea)
	}
	return s.backend.InstallMonitor(ba, ea)
}

func (s *Session) remove(ba, ea arch.Addr) error {
	if s.engine != nil {
		return s.engine.RemoveMonitor(ba, ea)
	}
	return s.backend.RemoveMonitor(ba, ea)
}

func (s *Session) onHit(n wms.Notification) {
	if s.MaxHits > 0 && len(s.log) >= s.MaxHits {
		return
	}
	var hit *Breakpoint
	for _, bp := range s.bps {
		if bp.Range.Contains(n.BA) {
			hit = bp
			break
		}
	}
	if hit == nil {
		hit = s.localBreakpointFor(n.BA)
	}
	// The WMS delivers notifications after the write (§1), so the new
	// value is in place.
	var newVal int32
	if w, err := s.Machine.Mem.KernelReadWord(n.BA); err == nil {
		newVal = int32(w)
	}
	name := ""
	if hit != nil {
		if hit.Condition != nil {
			old := hit.lastValue
			if !hit.hasLast {
				old = 0
			}
			keep := hit.Condition(old, newVal)
			hit.lastValue = newVal
			hit.hasLast = true
			if !keep {
				return
			}
		}
		hit.Hits++
		name = hit.Name
	}
	fn := ""
	if f := s.Image.FuncAt(n.PC); f != nil {
		fn = f.Name
	}
	s.log = append(s.log, Hit{Breakpoint: name, BA: n.BA, EA: n.EA, PC: n.PC, Func: fn, Value: newVal})
}

// BreakOnData installs a data breakpoint on a global variable or a
// function static (by its mangled "func$name" symbol).
func (s *Session) BreakOnData(symbol string) (*Breakpoint, error) {
	r, ok := s.Image.Data[symbol]
	if !ok {
		return nil, fmt.Errorf("debug: no data symbol %q (known: %s)", symbol, s.nearbySymbols(symbol))
	}
	return s.BreakOnRange(symbol, r.BA, r.EA)
}

// BreakOnRange installs a named data breakpoint on a raw address range
// (used for heap objects whose address the program reports).
func (s *Session) BreakOnRange(name string, ba, ea arch.Addr) (*Breakpoint, error) {
	if _, dup := s.bps[name]; dup {
		return nil, fmt.Errorf("debug: breakpoint %q already set", name)
	}
	if err := s.install(ba, ea); err != nil {
		return nil, fmt.Errorf("debug: installing %q: %w", name, err)
	}
	bp := &Breakpoint{Name: name, Range: arch.Range{BA: ba, EA: ea}}
	s.bps[name] = bp
	return bp, nil
}

// Clear removes a data breakpoint (including local watchpoints, whose
// live instantiations are all unmonitored).
func (s *Session) Clear(name string) error {
	bp, ok := s.bps[name]
	if !ok {
		return fmt.Errorf("debug: no breakpoint %q", name)
	}
	delete(s.bps, name)
	for i, lw := range s.locals {
		if lw.name != name {
			continue
		}
		for _, r := range lw.frames {
			if !r.Empty() {
				_ = s.remove(r.BA, r.EA)
			}
		}
		s.locals = append(s.locals[:i], s.locals[i+1:]...)
		return nil
	}
	return s.remove(bp.Range.BA, bp.Range.EA)
}

// Breakpoints lists installed breakpoints sorted by name.
func (s *Session) Breakpoints() []*Breakpoint {
	out := make([]*Breakpoint, 0, len(s.bps))
	for _, bp := range s.bps {
		out = append(out, bp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the debuggee to completion.
func (s *Session) Run(fuel uint64) error {
	sp := s.obs.StartSpan("run")
	sp.Attr("strategy", string(s.Strategy))
	err := s.Machine.Run(fuel)
	sp.Int("cycles", int64(s.Machine.CPU.Cycles))
	sp.Int("hits", int64(len(s.log)))
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
	return err
}

// Hits returns the notification log.
func (s *Session) Hits() []Hit { return s.log }

// Output returns the debuggee's print output so far.
func (s *Session) Output() string { return s.Machine.Out.String() }

// Report renders a human-readable summary of the session.
func (s *Session) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s cycles=%d (%.3f simulated seconds)\n",
		s.Strategy, s.Machine.CPU.Cycles, s.Machine.BaseSeconds())
	for _, bp := range s.Breakpoints() {
		fmt.Fprintf(&b, "breakpoint %-20s %v  hits=%d\n", bp.Name, bp.Range, bp.Hits)
	}
	// Summarise hits by writing function.
	byFunc := map[string]int{}
	for _, h := range s.log {
		key := h.Func
		if key == "" {
			key = "?"
		}
		byFunc[key]++
	}
	funcs := make([]string, 0, len(byFunc))
	for f := range byFunc {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return byFunc[funcs[i]] > byFunc[funcs[j]] })
	for _, f := range funcs {
		fmt.Fprintf(&b, "  %5d write(s) from %s\n", byFunc[f], f)
	}
	return b.String()
}

func (s *Session) nearbySymbols(prefix string) string {
	var names []string
	for sym := range s.Image.Data {
		names = append(names, sym)
	}
	sort.Strings(names)
	if len(names) > 12 {
		names = names[:12]
	}
	return strings.Join(names, ", ")
}
