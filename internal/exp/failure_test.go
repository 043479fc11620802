package exp

// Failure-mode tests for the hardened pipeline: panic containment,
// context cancellation/deadline, KeepGoing partial results (and their
// determinism across worker counts), retry exhaustion, and the
// cache's no-negative-entries policy.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"edb/internal/fault"
	"edb/internal/model"
	"edb/internal/progs"
)

// chaosPrograms is the two-benchmark set the failure-mode tests run.
var chaosPrograms = []string{"bps", "qcd"}

// withPlan activates a fault plan for the test body and guarantees
// deactivation and a cache reset afterwards.
func withPlan(t *testing.T, p *fault.Plan, body func()) {
	t.Helper()
	ResetCache()
	fault.Activate(p)
	defer func() {
		fault.Deactivate()
		ResetCache()
	}()
	body()
}

// TestWorkerPanicContained: an injected panic in one benchmark's
// pipeline is converted into a *WorkerError carrying the program name
// and a stack trace; no goroutine dies, no test process crashes.
func TestWorkerPanicContained(t *testing.T) {
	for _, workers := range []int{1, 2} {
		plan := fault.NewPlan(1, fault.Rule{
			Site: fault.SiteBuildArtifacts, Key: "qcd", Kind: fault.Panic, Times: 1,
		})
		withPlan(t, plan, func() {
			before := runtime.NumGoroutine()
			_, err := Run(Config{Programs: chaosPrograms, Workers: workers})
			if err == nil {
				t.Fatalf("workers=%d: expected contained panic error", workers)
			}
			var we *WorkerError
			if !errors.As(err, &we) {
				t.Fatalf("workers=%d: err = %v, want *WorkerError", workers, err)
			}
			if we.Program != "qcd" {
				t.Errorf("workers=%d: panicked program = %q, want qcd", workers, we.Program)
			}
			if len(we.Stack) == 0 || !strings.Contains(string(we.Stack), "goroutine") {
				t.Errorf("workers=%d: WorkerError carries no stack", workers)
			}
			if !fault.IsInjected(err) {
				t.Errorf("workers=%d: injection lost from the error chain: %v", workers, err)
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestContextCancellation: a pre-cancelled context stops the run with
// context.Canceled before any pipeline work happens.
func TestContextCancellation(t *testing.T) {
	ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := builds.Load()
	_, err := RunContext(ctx, Config{Programs: chaosPrograms, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := builds.Load() - start; got != 0 {
		t.Errorf("%d pipelines built under a cancelled context", got)
	}
}

// TestContextDeadline: an already-expired deadline surfaces as
// DeadlineExceeded; a generous deadline does not perturb the run.
func TestContextDeadline(t *testing.T) {
	ResetCache()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure expiry
	_, err := RunContext(ctx, Config{Programs: chaosPrograms, Workers: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	rs, err := RunContext(ctx2, Config{Programs: chaosPrograms, Workers: 2})
	if err != nil {
		t.Fatalf("generous deadline failed the run: %v", err)
	}
	if len(rs) != len(chaosPrograms) {
		t.Fatalf("results = %d, want %d", len(rs), len(chaosPrograms))
	}
}

// TestKeepGoingPartialResults: with KeepGoing, a permanently failing
// benchmark comes back as a placeholder (Err != nil) in its slot, the
// healthy benchmarks are fully computed, and Run returns a *RunError
// naming exactly the failures.
func TestKeepGoingPartialResults(t *testing.T) {
	plan := fault.NewPlan(2, fault.Rule{
		Site: fault.SiteSimReplay, Key: "qcd", Kind: fault.Permanent,
	})
	withPlan(t, plan, func() {
		rs, err := Run(Config{Programs: chaosPrograms, Workers: 2, KeepGoing: true})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RunError", err)
		}
		if len(re.Failures) != 1 || re.Failures[0].Program != "qcd" {
			t.Fatalf("failures = %+v, want exactly qcd", re.Failures)
		}
		if !re.Failed("qcd") || re.Failed("bps") {
			t.Error("RunError.Failed misreports")
		}
		if !strings.Contains(re.Error(), "1 of the configured benchmarks failed") {
			t.Errorf("RunError text: %q", re.Error())
		}
		if len(rs) != 2 {
			t.Fatalf("partial results = %d, want 2", len(rs))
		}
		if rs[0].Program != "bps" || rs[0].Err != nil || len(rs[0].Kept) == 0 {
			t.Errorf("healthy benchmark not fully computed: %+v", rs[0].Program)
		}
		if rs[1].Program != "qcd" || rs[1].Err == nil {
			t.Errorf("failed benchmark not a placeholder: %+v", rs[1])
		}
		if !fault.IsInjected(rs[1].Err) {
			t.Errorf("placeholder error lost the injection: %v", rs[1].Err)
		}
	})
}

// TestKeepGoingDeterministicAcrossWorkers: which benchmarks fail — and
// the surviving results — are identical at Workers 1, 4, and NumCPU,
// because faults fire by per-benchmark invocation count, not by
// scheduling.
func TestKeepGoingDeterministicAcrossWorkers(t *testing.T) {
	programs := []string{"bps", "qcd", "ctex"}
	newPlan := func() *fault.Plan {
		return fault.NewPlan(3,
			fault.Rule{Site: fault.SiteBuildArtifacts, Key: "qcd", Kind: fault.Permanent},
			fault.Rule{Site: fault.SiteSimReplay, Key: "ctex", Kind: fault.Panic, Times: 1},
		)
	}
	type outcome struct {
		rs  []*ProgramResult
		err error
	}
	var outcomes []outcome
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		withPlan(t, newPlan(), func() {
			rs, err := Run(Config{Programs: programs, Workers: workers, KeepGoing: true})
			outcomes = append(outcomes, outcome{rs, err})
		})
	}
	ref := outcomes[0]
	var refRE *RunError
	if !errors.As(ref.err, &refRE) {
		t.Fatalf("serial run err = %v, want *RunError", ref.err)
	}
	if len(refRE.Failures) != 2 {
		t.Fatalf("serial failures = %+v, want qcd and ctex", refRE.Failures)
	}
	for oi, o := range outcomes[1:] {
		var re *RunError
		if !errors.As(o.err, &re) {
			t.Fatalf("outcome %d err = %v, want *RunError", oi+1, o.err)
		}
		if len(re.Failures) != len(refRE.Failures) {
			t.Fatalf("outcome %d failures = %+v vs serial %+v", oi+1, re.Failures, refRE.Failures)
		}
		for i := range re.Failures {
			if re.Failures[i].Program != refRE.Failures[i].Program {
				t.Errorf("outcome %d failure[%d] = %s vs %s",
					oi+1, i, re.Failures[i].Program, refRE.Failures[i].Program)
			}
		}
		for i := range o.rs {
			if (o.rs[i].Err != nil) != (ref.rs[i].Err != nil) {
				t.Fatalf("outcome %d: result[%d] failure state differs", oi+1, i)
			}
			if o.rs[i].Err == nil {
				sameResults(t, "keepgoing-workers", ref.rs[i], o.rs[i])
			}
		}
	}
}

// TestRetryExhaustion: a transient fault that outlives the retry
// budget surfaces with an error naming the attempt count, and the
// injection stays in the chain.
func TestRetryExhaustion(t *testing.T) {
	plan := fault.NewPlan(4, fault.Rule{
		Site: fault.SiteBuildArtifacts, Key: "bps", Kind: fault.Transient, // Times 0: every invocation
	})
	withPlan(t, plan, func() {
		_, err := Run(Config{
			Programs:     []string{"bps"},
			Workers:      1,
			Retries:      2,
			RetryBackoff: time.Microsecond,
		})
		if err == nil {
			t.Fatal("expected retry exhaustion")
		}
		if !strings.Contains(err.Error(), "giving up after 3 attempts") {
			t.Errorf("err = %v, want 'giving up after 3 attempts'", err)
		}
		if !fault.IsTransient(err) {
			t.Errorf("exhaustion error lost the transient classification: %v", err)
		}
		if got := plan.Fired(fault.SiteBuildArtifacts); got != 3 {
			t.Errorf("site fired %d times, want 3 (1 attempt + 2 retries)", got)
		}
	})
}

// TestRetryAbsorbsTransient: a one-shot transient fault plus one retry
// yields a result bit-identical to the fault-free pipeline.
func TestRetryAbsorbsTransient(t *testing.T) {
	ResetCache()
	p, err := progs.ByName("bps", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runProgram(context.Background(), p, model.Paper, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(5, fault.Rule{
		Site: fault.SiteBuildArtifacts, Key: "bps", Kind: fault.Transient, Times: 1,
	})
	withPlan(t, plan, func() {
		rs, err := Run(Config{
			Programs:     []string{"bps"},
			Workers:      1,
			Retries:      1,
			RetryBackoff: time.Microsecond,
		})
		if err != nil {
			t.Fatalf("retry did not absorb the transient fault: %v", err)
		}
		if plan.Fired(fault.SiteBuildArtifacts) != 1 {
			t.Fatalf("fault fired %d times, want 1", plan.Fired(fault.SiteBuildArtifacts))
		}
		sameResults(t, "retry-absorbed", base, rs[0])
	})
}

// TestPermanentFaultNotRetried: the retry budget must not be spent on
// permanent faults.
func TestPermanentFaultNotRetried(t *testing.T) {
	plan := fault.NewPlan(6, fault.Rule{
		Site: fault.SiteBuildArtifacts, Key: "bps", Kind: fault.Permanent,
	})
	withPlan(t, plan, func() {
		_, err := Run(Config{Programs: []string{"bps"}, Workers: 1, Retries: 5})
		if err == nil {
			t.Fatal("expected permanent failure")
		}
		if strings.Contains(err.Error(), "giving up after") {
			t.Errorf("permanent fault went through the retry loop: %v", err)
		}
		if got := plan.Fired(fault.SiteBuildArtifacts); got != 1 {
			t.Errorf("site fired %d times, want 1 (no retries)", got)
		}
	})
}

// TestCacheDoesNotMemoiseFailures: a failed build must not be pinned —
// once the fault clears, the same key builds successfully, and the
// builds counter shows the failed attempt never became a cache entry.
func TestCacheDoesNotMemoiseFailures(t *testing.T) {
	plan := fault.NewPlan(7, fault.Rule{
		Site: fault.SiteBuildArtifacts, Key: "bps", Kind: fault.Permanent, Times: 1,
	})
	withPlan(t, plan, func() {
		p, err := progs.ByName("bps", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runProgram(context.Background(), p, model.Paper, nil); err == nil {
			t.Fatal("expected injected build failure")
		} else if !fault.IsInjected(err) {
			t.Fatalf("untyped build failure: %v", err)
		}
		// (An entry shell may exist after the failure, but it must hold
		// no artifacts — asserted behaviourally by the rebuild below.)
		// Fault window (Times: 1) has passed: the rebuild succeeds.
		start := builds.Load()
		res, err := runProgram(context.Background(), p, model.Paper, nil)
		if err != nil {
			t.Fatalf("failure was memoised: %v", err)
		}
		if res == nil || len(res.Kept) == 0 {
			t.Fatal("rebuild returned an empty result")
		}
		if got := builds.Load() - start; got != 1 {
			t.Errorf("rebuild after failure ran %d builds, want 1", got)
		}
		// And a third call is served from the cache.
		if _, err := runProgram(context.Background(), p, model.Paper, nil); err != nil {
			t.Fatal(err)
		}
		if got := builds.Load() - start; got != 1 {
			t.Errorf("post-recovery call rebuilt (%d builds), cache broken", got)
		}
	})
}

// TestCacheSurvivesBuildPanic: a panic escaping buildArtifacts leaves
// the cache entry unlocked and empty; the next caller rebuilds cleanly.
func TestCacheSurvivesBuildPanic(t *testing.T) {
	plan := fault.NewPlan(8, fault.Rule{
		Site: fault.SiteBuildArtifacts, Key: "bps", Kind: fault.Panic, Times: 1,
	})
	withPlan(t, plan, func() {
		p, err := progs.ByName("bps", 1)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected injected panic to escape cachedArtifacts")
				}
			}()
			cachedArtifacts(p, nil)
		}()
		// The entry's mutex must have been released by the deferred
		// unlock; a rebuild on the same key succeeds (with a timeout so
		// a deadlocked entry fails fast instead of hanging the suite).
		done := make(chan error, 1)
		go func() {
			_, err := cachedArtifacts(p, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("rebuild after panic failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cache entry deadlocked after a build panic")
		}
	})
}
