package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"edb/internal/fault"
)

// transientAttempt returns an attempt function that fails with an
// injected transient fault for the first n calls, then succeeds.
func transientAttempt(n int) (func(ctx context.Context) (*Artifact, error), *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context) (*Artifact, error) {
		if c := calls.Add(1); c <= int64(n) {
			if err := fault.Inject(fault.SiteServeReplay, "unit"); err != nil {
				return nil, err
			}
		}
		return testArtifact(hashLike(0x42)), nil
	}, &calls
}

func TestDispatchRetriesTransient(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "unit", Kind: fault.Transient, Times: 2,
	}))
	defer fault.Deactivate()
	d := newDispatcher(3, time.Millisecond, 1)
	attempt, calls := transientAttempt(2)
	art, err := d.run(context.Background(), "unit", attempt)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if art == nil || calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3 (two transient failures + success)", calls.Load())
	}
}

func TestDispatchStopsOnPermanent(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "unit", Kind: fault.Permanent,
	}))
	defer fault.Deactivate()
	d := newDispatcher(5, time.Millisecond, 1)
	attempt, calls := transientAttempt(100)
	_, err := d.run(context.Background(), "unit", attempt)
	if err == nil || fault.IsTransient(err) || !fault.IsInjected(err) {
		t.Fatalf("err = %v, want injected permanent", err)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent error was retried: %d attempts", calls.Load())
	}
}

func TestDispatchRetriesExhausted(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "unit", Kind: fault.Transient,
	}))
	defer fault.Deactivate()
	d := newDispatcher(2, time.Millisecond, 1)
	attempt, calls := transientAttempt(100)
	_, err := d.run(context.Background(), "unit", attempt)
	if err == nil || !fault.IsTransient(err) {
		t.Fatalf("err = %v, want transient after exhaustion", err)
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 retries)", calls.Load())
	}
}

// TestDispatchContainsPanic: a Panic-kind injection inside an attempt
// becomes a typed ReplayPanicError that still reads as injected.
func TestDispatchContainsPanic(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "unit", Kind: fault.Panic,
	}))
	defer fault.Deactivate()
	d := newDispatcher(0, time.Millisecond, 1)
	attempt, _ := transientAttempt(100)
	_, err := d.run(context.Background(), "unit", attempt)
	var pe *ReplayPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ReplayPanicError", err)
	}
	if !fault.IsInjected(err) {
		t.Errorf("containment hides the injected fault: %v", err)
	}
}

// TestDispatchDeadlineCutsBackoff: an expiring context interrupts the
// backoff sleep promptly instead of sleeping through it.
func TestDispatchDeadlineCutsBackoff(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteServeReplay, Key: "unit", Kind: fault.Transient,
	}))
	defer fault.Deactivate()
	d := newDispatcher(3, time.Hour, 1) // absurd backoff: only cancellation ends it
	attempt, _ := transientAttempt(100)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := d.run(ctx, "unit", attempt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("backoff ignored cancellation: took %s", elapsed)
	}
}
