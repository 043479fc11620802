// The replay dispatcher: the resilient path from an admitted
// submission to a committed artifact. Each attempt runs the
// deterministic replay under panic containment; around attempts sits a
// transient-only retry loop with jittered, capped exponential backoff.
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

// dispatcher runs replay attempts with retry.
type dispatcher struct {
	retries int           // transient re-attempts after the first try
	backoff time.Duration // first retry delay; doubles, capped at 8x

	mu  sync.Mutex
	rng *rand.Rand // jitter source; seeded once for reproducible tests
}

func newDispatcher(retries int, backoff time.Duration, seed int64) *dispatcher {
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	return &dispatcher{
		retries: retries,
		backoff: backoff,
		rng:     rand.New(rand.NewSource(seed)),
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

// run executes attempt with retry. Only transient failures
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
		art, err := d.protected(ctx, tenant, attempt)
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
// chosen sessions, and seal the result under the submission's hash. A
// session mutation passes its base artifact: base rows are reused by
// discovery index, the stable session identity across subset
// selections, and only the sessions the base lacks are replayed. A
// full replay passes nil. Either way the result is deterministic: the
// same request bytes always produce the same ResultSHA, merged or not,
// on any retry.
func computeArtifact(tenant string, req *Request, base *Artifact) (*Artifact, error) {
	if base == nil {
		// Panic-kind injections panic out of Inject itself; the
		// dispatcher's containment converts them into a
		// ReplayPanicError.
		if err := fault.Inject(fault.SiteServeReplay, tenant); err != nil {
			return nil, fmt.Errorf("serve: replay: %w", err)
		}
	}
	// Session discovery needs only the object table, so both the
	// materialised and the spooled shapes feed the same path; the spool
	// replays through the streamed sim engine instead of in memory.
	head := req.traceHead()
	full := sessions.Discover(head)
	chosen, origIndex, err := req.Header.Sessions.Select(full)
	if err != nil {
		return nil, err
	}
	art := &Artifact{RequestSHA: req.Hash, Program: head.Program, Sessions: make([]SessionResult, len(chosen))}
	simTrace, simOpts := req.Trace, sim.Options{}
	if st := req.Streamed; st != nil {
		art.NumEvents = int(st.NumEvents)
		simTrace, simOpts.Source = nil, st.Source
	} else {
		art.NumEvents = len(req.Trace.Events)
	}
	var have map[int]*SessionResult
	if base != nil {
		have = make(map[int]*SessionResult, len(base.Sessions))
		for i := range base.Sessions {
			have[base.Sessions[i].Index] = &base.Sessions[i]
		}
	}
	var added []sessions.Session
	var addedPos []int
	for i := range chosen {
		if row, ok := have[origIndex[i]]; ok {
			art.Sessions[i] = *row
		} else {
			added = append(added, chosen[i])
			addedPos = append(addedPos, i)
		}
	}
	if len(added) > 0 {
		subset := sessions.NewSet(added, full.NumObjects())
		out, err := sim.RunWithOptions(simTrace, subset, simOpts)
		if err != nil {
			return nil, fmt.Errorf("serve: replay: %w", err)
		}
		for k, pos := range addedPos {
			s := &subset.Sessions[k]
			art.Sessions[pos] = SessionResult{
				Index:    origIndex[pos],
				Type:     s.Type.String(),
				Label:    s.Label(),
				Counting: out.PerSession[k],
			}
		}
	}
	art.ResultSHA = resultHash(art.Sessions)
	return art, nil
}

// resultHash seals the per-session results: the hex SHA-256 over each
// session's canonical line in order. Retries, merged mutations, and
// cache hits for the same submission must all agree on it.
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
