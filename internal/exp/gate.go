// Admission control for the experiment pipeline. The serving layer
// (internal/serve) shares one pool across every tenant's submissions —
// replay requests and full experiment runs alike — so the pipeline can
// be loaded to capacity but never past it: when its queue is full the
// caller gets ErrGateOverloaded immediately (the server converts it
// into a 429 with Retry-After) instead of piling up goroutines until
// collapse.
package exp

import (
	"context"
	"errors"
)

// ErrGateOverloaded is returned by Acquire when the wait queue is
// full: the caller should shed the request (reject with retry-later)
// rather than block.
var ErrGateOverloaded = errors.New("exp: admission gate overloaded")

// Gate is the admission hook consulted by Run for each benchmark when
// Config.Gate is set. Implementations must be safe for concurrent
// use. Acquire blocks until weight units of capacity are granted, the
// context is done, or the implementation decides to shed the request;
// on success it returns a release function that must be called exactly
// once.
//
// The serving layer implements Gate with per-tenant fair queueing
// (serve.Admission).
type Gate interface {
	Acquire(ctx context.Context, weight int64) (release func(), err error)
}
