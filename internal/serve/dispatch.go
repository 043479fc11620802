// The replay dispatcher: the resilient path from an admitted
// submission to a committed artifact. Each attempt runs the
// deterministic replay under panic containment; around attempts sit a
// transient-only retry loop with jittered, capped exponential backoff
// and an optional hedge — a duplicate attempt dispatched when the
// primary is slow, first result wins. Determinism makes hedging safe:
// both attempts compute bit-identical artifacts, so whichever lands
// first is the answer.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"edb/internal/fault"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/trace"
)

// ReplayPanicError wraps a panic recovered from a replay attempt into
// an ordinary typed error, so one poisoned submission kills its own
// request and nothing else.
type ReplayPanicError struct {
	Tenant string
	Value  any
}

// Error implements the error interface.
func (e *ReplayPanicError) Error() string {
	return fmt.Sprintf("serve: replay panicked for tenant %q: %v", e.Tenant, e.Value)
}

// Unwrap exposes an injected fault carried by the panic value, so
// fault.IsInjected sees through the containment.
func (e *ReplayPanicError) Unwrap() error {
	if pv, ok := e.Value.(*fault.PanicValue); ok {
		return pv.Err
	}
	return nil
}

// dispatcher runs replay attempts with retry and hedging.
type dispatcher struct {
	retries    int           // transient re-attempts after the first try
	backoff    time.Duration // first retry delay; doubles, capped at 8x
	hedgeAfter time.Duration // 0 disables hedging

	mu  sync.Mutex
	rng *rand.Rand // jitter source; seeded once for reproducible tests
}

func newDispatcher(retries int, backoff, hedgeAfter time.Duration, seed int64) *dispatcher {
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	return &dispatcher{
		retries:    retries,
		backoff:    backoff,
		hedgeAfter: hedgeAfter,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// jittered returns d scaled by a uniform factor in [0.5, 1.5), so
// synchronized failures don't retry in lockstep.
func (d *dispatcher) jittered(dur time.Duration) time.Duration {
	d.mu.Lock()
	f := 0.5 + d.rng.Float64()
	d.mu.Unlock()
	return time.Duration(float64(dur) * f)
}

// run executes attempt with retry + hedging. Only transient failures
// (per the fault taxonomy) are retried; permanent errors, panics, and
// context expiry surface immediately.
func (d *dispatcher) run(ctx context.Context, tenant string, attempt func(ctx context.Context) (*Artifact, error)) (*Artifact, error) {
	var lastErr error
	for try := 0; try <= d.retries; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("serve: %w (last attempt: %v)", err, lastErr)
			}
			return nil, err
		}
		if try > 0 {
			shift := uint(try - 1)
			if shift > 3 {
				shift = 3
			}
			t := time.NewTimer(d.jittered(d.backoff << shift))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("serve: %w (last attempt: %v)", ctx.Err(), lastErr)
			}
		}
		art, err := d.attemptHedged(ctx, tenant, attempt)
		if err == nil {
			return art, nil
		}
		lastErr = err
		if !fault.IsTransient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("serve: retries exhausted: %w", lastErr)
}

// attemptResult is one attempt's outcome, tagged with which lane
// (primary or hedge) produced it.
type attemptResult struct {
	art   *Artifact
	err   error
	hedge bool
}

// attemptHedged runs one logical attempt. With hedging enabled, a
// duplicate attempt launches if the primary hasn't answered within
// hedgeAfter; the first result — success or failure — wins, and the
// loser's context is canceled. Without hedging it is a plain call.
func (d *dispatcher) attemptHedged(ctx context.Context, tenant string, attempt func(ctx context.Context) (*Artifact, error)) (*Artifact, error) {
	if d.hedgeAfter <= 0 {
		return d.protected(ctx, tenant, attempt)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, 2)
	launch := func(hedge bool) {
		go func() {
			art, err := d.protected(actx, tenant, attempt)
			results <- attemptResult{art: art, err: err, hedge: hedge}
		}()
	}
	launch(false)
	hedgeTimer := time.NewTimer(d.hedgeAfter)
	defer hedgeTimer.Stop()
	launched := 1
	for {
		select {
		case r := <-results:
			// First result wins; cancel drains the loser via actx.
			return r.art, r.err
		case <-hedgeTimer.C:
			if launched < 2 {
				launch(true)
				launched++
			}
		case <-actx.Done():
			if launched > 0 {
				r := <-results // attempts always send, even on cancellation
				if launched == 2 {
					<-results
				}
				if r.err == nil {
					return r.art, nil
				}
			}
			return nil, actx.Err()
		}
	}
}

// protected runs one attempt with panic containment.
func (d *dispatcher) protected(ctx context.Context, tenant string, attempt func(ctx context.Context) (*Artifact, error)) (art *Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			art, err = nil, &ReplayPanicError{Tenant: tenant, Value: r}
		}
	}()
	return attempt(ctx)
}

// computeArtifact is the replay itself: discover sessions, apply the
// submission's spec (keeping original discovery indices), replay the
// subset, and seal the result under its hash. It is deterministic:
// the same request bytes always produce the same ResultSHA,
// regardless of retry lane or which hedge won.
func computeArtifact(tenant string, req *Request) (*Artifact, error) {
	// Panic-kind injections panic out of Inject itself; the dispatcher's
	// containment converts them into a ReplayPanicError.
	if err := fault.Inject(fault.SiteServeReplay, tenant); err != nil {
		return nil, fmt.Errorf("serve: replay: %w", err)
	}
	// Session discovery needs only the object table, so both the
	// materialised and the spooled shapes feed the same path; the spool
	// replays through the streamed sim engine instead of in memory.
	numEvents := 0
	simTrace, simOpts := req.Trace, sim.Options{}
	discTrace := req.Trace
	if st := req.Streamed; st != nil {
		numEvents = int(st.NumEvents)
		simTrace = nil
		simOpts.Source = st.Source
		discTrace = &trace.Trace{Program: st.Program, Objects: st.Objects}
	} else {
		numEvents = len(req.Trace.Events)
	}
	full := sessions.Discover(discTrace)
	chosen, origIndex, err := req.Header.Sessions.Select(full)
	if err != nil {
		return nil, err
	}
	subset := sessions.NewSet(chosen, full.NumObjects())
	out, err := sim.RunWithOptions(simTrace, subset, simOpts)
	if err != nil {
		return nil, fmt.Errorf("serve: replay: %w", err)
	}
	art := &Artifact{
		RequestSHA: req.Hash,
		Program:    discTrace.Program,
		NumEvents:  numEvents,
		Sessions:   make([]SessionResult, len(out.PerSession)),
	}
	for i := range out.PerSession {
		s := &subset.Sessions[i]
		art.Sessions[i] = SessionResult{
			Index:    origIndex[i],
			Type:     s.Type.String(),
			Label:    s.Label(),
			Counting: out.PerSession[i],
		}
	}
	art.ResultSHA = resultHash(art.Sessions)
	return art, nil
}

// resultHash seals the per-session results: the hex SHA-256 over each
// session's canonical line in order. Retries, hedges, and cache hits
// for the same submission must all agree on it.
func resultHash(sess []SessionResult) string {
	h := sha256.New()
	for i := range sess {
		s := &sess[i]
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%v|%v\n",
			s.Index, s.Type, s.Label,
			s.Counting.Installs, s.Counting.Removes, s.Counting.Hits, s.Counting.Misses,
			s.Counting.VM[0], s.Counting.VM[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}
