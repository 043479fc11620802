// Package fault is a deterministic, seeded fault-injection framework
// for chaos-testing the experiment pipeline. Named injection points
// (Sites) are threaded through the hot layers — artifact build, trace
// serialisation, simulation replay, CPU fuel accounting — and a test
// activates a Plan describing exactly which invocations of which sites
// fail, and how:
//
//   - Transient: an error the caller may retry (the pipeline is
//     deterministic, so a bounded retry converges to the fault-free
//     result bit-for-bit).
//   - Permanent: an error retrying cannot fix.
//   - Corrupt: deterministic payload corruption (a seeded bit flip),
//     for exercising decoder integrity checks.
//   - Panic: a goroutine panic, for exercising worker containment.
//
// Determinism: a Rule fires by (site, key, invocation-count), where the
// key is typically a benchmark name and the per-(site, key) invocation
// counter is maintained by the Plan. The corruption bit position is a
// pure function of (plan seed, site, key, invocation, payload length).
// Running the same plan against the same workload therefore injects
// byte-identical faults, which is what lets the chaos differential
// harness compare faulted runs against fault-free baselines.
//
// Overhead: when no plan is active — every production run — each
// injection point costs one atomic pointer load and nothing else.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// Site names one injection point.
type Site string

var (
	registryMu sync.Mutex
	registry   []Site
)

// Register adds a site to the global registry and returns it. Sites are
// declared centrally below so that the chaos harness can enumerate
// every injection point (Sites) and fail when a new site is added
// without harness coverage.
func Register(name string) Site {
	registryMu.Lock()
	defer registryMu.Unlock()
	s := Site(name)
	for _, have := range registry {
		if have == s {
			panic(fmt.Sprintf("fault: duplicate site %q", name))
		}
	}
	registry = append(registry, s)
	return s
}

// Sites returns every registered injection point, sorted by name.
func Sites() []Site {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Site, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The registered injection points, one per hardened layer.
var (
	// SiteBuildArtifacts fires at the top of the experiment pipeline's
	// compile + trace phase (internal/exp.buildArtifacts). Keyed by
	// benchmark name. Honors Transient, Permanent, and Panic.
	SiteBuildArtifacts = Register("exp.buildArtifacts")
	// SiteTraceWrite fires at the top of trace serialisation
	// (trace.WriteTo and trace.Writer), modelling an output I/O error. Keyed by
	// program name. Honors Transient and Permanent.
	SiteTraceWrite = Register("trace.Write")
	// SiteTraceCorrupt flips one deterministic bit in a serialised
	// version-2 trace payload after its checksum has been computed,
	// modelling at-rest bit rot. Keyed by program name. Honors Corrupt.
	SiteTraceCorrupt = Register("trace.Write.corrupt")
	// SiteTraceRead fires at the top of trace deserialisation
	// (trace.Read), modelling an input I/O error. Unkeyed (the program
	// name is not known until the header parses). Honors Transient and
	// Permanent.
	SiteTraceRead = Register("trace.Read")
	// SiteSimReplay fires at the top of every phase-2 replay
	// (sim.RunWithOptions, in-memory or streamed). Keyed by program
	// name. Honors Transient, Permanent, and Panic.
	SiteSimReplay = Register("sim.Replay")
	// SiteCPUFuel fires at the top of cpu.Run; the CPU converts the
	// injection into an early ErrFuelExhausted, modelling a run that
	// hits its instruction budget. Keyed by the CPU's FaultKey (the
	// tracer sets it to the program name). Honors Transient and
	// Permanent.
	SiteCPUFuel = Register("cpu.Run.fuel")
)

// Kind classifies an injected fault.
type Kind uint8

// Fault kinds.
const (
	// Transient marks an error the caller is allowed to retry.
	Transient Kind = 1 + iota
	// Permanent marks an error retrying cannot fix.
	Permanent
	// Corrupt flips a deterministic payload bit (Mutate sites only).
	Corrupt
	// Panic panics the invoking goroutine with a *PanicValue.
	Panic
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Corrupt:
		return "corrupt"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Rule arms one site: invocations of Site carrying a matching key fault
// with the given kind once the per-(site, key) invocation counter
// reaches After, for Times consecutive matching invocations (0 = every
// one from After on). A Transient rule with Times=1 therefore models
// the classic flaky failure: first attempt fails, retry succeeds.
type Rule struct {
	Site Site
	// Key restricts the rule to invocations carrying this key
	// (benchmark name at most sites); empty matches every key.
	Key   string
	Kind  Kind
	After uint64
	Times uint64
}

// Error is the typed error returned (or panicked, for Kind Panic) by a
// firing injection.
type Error struct {
	Site       Site
	Key        string
	Kind       Kind
	Invocation uint64
}

// Error implements the error interface.
func (e *Error) Error() string {
	key := e.Key
	if key == "" {
		key = "*"
	}
	return fmt.Sprintf("injected %s fault at %s[%s] invocation %d",
		e.Kind, e.Site, key, e.Invocation)
}

// PanicValue is the value a Panic-kind injection panics with.
type PanicValue struct{ Err *Error }

// String renders the panic payload.
func (p *PanicValue) String() string { return p.Err.Error() }

// IsInjected reports whether err (anywhere in its chain) was produced
// by a fault injection.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// IsTransient reports whether err carries an injected fault classified
// transient — the only class the pipeline's bounded retry is allowed to
// eat. Everything else (permanent faults, genuine pipeline errors,
// contained panics) must surface.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == Transient
}

// countKey identifies one per-(site, key) invocation counter.
type countKey struct {
	site Site
	key  string
}

// Plan is one armed fault schedule plus its invocation counters.
// Activate installs it globally; counters start at zero and advance on
// every Inject/Mutate call at a registered site.
type Plan struct {
	seed  int64
	rules []Rule

	mu     sync.Mutex
	counts map[countKey]uint64
	fired  map[Site]uint64
}

// NewPlan builds a plan from explicit rules. The seed parameterises
// corruption bit positions only; rule matching is exact.
func NewPlan(seed int64, rules ...Rule) *Plan {
	return &Plan{
		seed:   seed,
		rules:  rules,
		counts: make(map[countKey]uint64),
		fired:  make(map[Site]uint64),
	}
}

// active is the globally installed plan; nil means injection is
// disabled and every site is a single atomic load.
var active atomic.Pointer[Plan]

// onFire is the optional observation hook: when set, every firing
// injection (any kind, Corrupt included) reports (site, key, kind)
// after the plan's bookkeeping completes and outside the plan lock.
// The pipeline observability layer (internal/obsv via internal/exp)
// uses it to surface chaos firings as trace events and metrics. It
// costs nothing unless a plan is active — the hook is only consulted
// on the firing path.
var onFire atomic.Pointer[func(Site, string, Kind)]

// SetOnFire installs fn as the process-wide firing observation hook
// and returns the previously installed hook (nil if none), so callers
// can restore it. Passing nil clears the hook. The hook must be fast
// and must not call back into the active plan.
func SetOnFire(fn func(Site, string, Kind)) (prev func(Site, string, Kind)) {
	var p *func(Site, string, Kind)
	if fn != nil {
		p = &fn
	}
	old := onFire.Swap(p)
	if old == nil {
		return nil
	}
	return *old
}

// fireHook invokes the observation hook, if any.
func fireHook(site Site, key string, kind Kind) {
	if fn := onFire.Load(); fn != nil {
		(*fn)(site, key, kind)
	}
}

// Activate installs p as the process-wide fault plan. Passing nil
// disables injection. Tests own this global: production code never
// activates a plan.
func Activate(p *Plan) { active.Store(p) }

// Deactivate disables fault injection.
func Deactivate() { active.Store(nil) }

// Fired reports how many injections have fired at site under this plan.
func (p *Plan) Fired(site Site) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[site]
}

// match returns the first armed rule covering this invocation, or nil.
// Callers hold p.mu.
func (p *Plan) match(site Site, key string, inv uint64, wantCorrupt bool) *Rule {
	for i := range p.rules {
		r := &p.rules[i]
		if r.Site != site || (r.Key != "" && r.Key != key) {
			continue
		}
		if (r.Kind == Corrupt) != wantCorrupt {
			continue
		}
		if inv < r.After {
			continue
		}
		if r.Times != 0 && inv >= r.After+r.Times {
			continue
		}
		return r
	}
	return nil
}

// Inject is the error/panic injection hook. Sites call it with their
// invocation key (usually the benchmark name); when the active plan has
// an armed rule for this invocation it returns a typed *Error
// (Transient/Permanent) or panics with a *PanicValue (Panic). With no
// active plan it is a single atomic load.
func Inject(site Site, key string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.inject(site, key)
}

func (p *Plan) inject(site Site, key string) error {
	p.mu.Lock()
	ck := countKey{site: site, key: key}
	inv := p.counts[ck]
	p.counts[ck] = inv + 1
	r := p.match(site, key, inv, false)
	if r == nil {
		p.mu.Unlock()
		return nil
	}
	p.fired[site]++
	kind := r.Kind
	p.mu.Unlock()
	fireHook(site, key, kind)
	e := &Error{Site: site, Key: key, Kind: kind, Invocation: inv}
	if kind == Panic {
		panic(&PanicValue{Err: e})
	}
	return e
}

// Mutate is the corruption hook: when the active plan has an armed
// Corrupt rule for this invocation it flips one deterministic bit of
// data in place and reports true. The bit position is a pure function
// of (plan seed, site, key, invocation, len(data)). With no active plan
// it is a single atomic load.
func Mutate(site Site, key string, data []byte) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	return p.mutate(site, key, data)
}

func (p *Plan) mutate(site Site, key string, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	p.mu.Lock()
	ck := countKey{site: site, key: key}
	inv := p.counts[ck]
	p.counts[ck] = inv + 1
	if p.match(site, key, inv, true) == nil {
		p.mu.Unlock()
		return false
	}
	p.fired[site]++
	p.mu.Unlock()
	fireHook(site, key, Corrupt)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d", p.seed, site, key, inv, len(data))
	bit := h.Sum64() % uint64(len(data)*8)
	data[bit/8] ^= 1 << (bit % 8)
	return true
}
