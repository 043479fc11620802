package exp

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// slotGate is a one-slot Gate: Acquire waits for the slot or, with
// shed set, fails at once with ErrGateOverloaded when it is taken.
type slotGate struct {
	slot chan struct{}
	shed bool
}

func newSlotGate(shed bool) *slotGate { return &slotGate{slot: make(chan struct{}, 1), shed: shed} }

func (g *slotGate) Acquire(ctx context.Context, _ int64) (func(), error) {
	if g.shed {
		select {
		case g.slot <- struct{}{}:
		default:
			return nil, ErrGateOverloaded
		}
	} else {
		select {
		case g.slot <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return func() { <-g.slot }, nil
}

// TestRunWithGate: Config.Gate bounds the pipeline's benchmark
// concurrency below Workers, and results stay bit-identical.
func TestRunWithGate(t *testing.T) {
	ResetCache()
	base, err := Run(Config{Programs: chaosPrograms, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := newSlotGate(false)
	got, err := Run(Config{Programs: chaosPrograms, Workers: 4, Gate: g})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		sameResults(t, "gated", base[i], got[i])
	}
	if n := len(g.slot); n != 0 {
		t.Errorf("gate not drained after Run: %d grant(s) unreleased", n)
	}
}

// TestRunGateOverloaded: a zero-queue gate at capacity sheds
// benchmarks with ErrGateOverloaded, which surfaces per-benchmark in
// KeepGoing mode.
func TestRunGateOverloaded(t *testing.T) {
	ResetCache()
	g := newSlotGate(true)
	release, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	out, err := Run(Config{Programs: chaosPrograms, Workers: 2, KeepGoing: true, Gate: g})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	for _, r := range out {
		if r.Err == nil || !errors.Is(r.Err, ErrGateOverloaded) {
			t.Errorf("%s: err = %v, want ErrGateOverloaded", r.Program, r.Err)
		}
	}
}

// TestNoGoroutineLeakOnDeadline is the context-leak audit: a deadline
// expiring mid-run, at every worker shape, must leave no pipeline
// goroutine behind — the retry backoff timer, the worker claim loop,
// and runProtected must all unwind promptly.
func TestNoGoroutineLeakOnDeadline(t *testing.T) {
	ResetCache()
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		before := runtime.NumGoroutine()
		for i := 0; i < 3; i++ {
			// A deadline a few milliseconds out lands mid-pipeline:
			// after some work has started, before it finishes.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i*4)*time.Millisecond)
			_, err := RunContext(ctx, Config{
				Programs:     []string{"bps", "ctex", "qcd"},
				Workers:      workers,
				Retries:      2,
				RetryBackoff: time.Millisecond,
			})
			cancel()
			// The run may complete if the cache made it fast; both
			// outcomes are fine — the invariant is goroutine hygiene.
			_ = err
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("workers=%d: %d goroutines before, %d after deadline expiry\n%s",
				workers, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}
