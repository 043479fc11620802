package exp

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"edb/internal/model"
	"edb/internal/progs"
)

// sameResults asserts two ProgramResults are identical — every field,
// float summaries included, compared exactly. Session pointers are
// compared by dereferenced value (they come from independent Discover
// passes).
func sameResults(t *testing.T, label string, a, b *ProgramResult) {
	t.Helper()
	if len(a.Kept) != len(b.Kept) {
		t.Fatalf("%s: %s kept %d vs %d sessions", label, a.Program, len(a.Kept), len(b.Kept))
	}
	for i := range a.Kept {
		ka, kb := &a.Kept[i], &b.Kept[i]
		if !reflect.DeepEqual(*ka.Session, *kb.Session) {
			t.Fatalf("%s: %s kept[%d] session %+v vs %+v", label, a.Program, i, *ka.Session, *kb.Session)
		}
		if ka.Counting != kb.Counting {
			t.Fatalf("%s: %s kept[%d] counting %+v vs %+v", label, a.Program, i, ka.Counting, kb.Counting)
		}
		if ka.Relative != kb.Relative {
			t.Fatalf("%s: %s kept[%d] relative %v vs %v", label, a.Program, i, ka.Relative, kb.Relative)
		}
	}
	// Everything else (including Summaries float fields and the
	// BreakdownMean maps) must match bit-for-bit.
	ca, cb := *a, *b
	ca.Kept, cb.Kept = nil, nil
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: %s results differ:\n  %+v\n  %+v", label, a.Program, ca, cb)
	}
}

// TestRunDeterministicAcrossWorkers is the end-to-end determinism
// property: Workers:1 and Workers:8 must produce identical
// ProgramResults (floats compared exactly), both from cold pipelines
// and from the cache, and repeated runs must be stable.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-benchmark determinism run")
	}
	ResetCache()
	serial, err := Run(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel run against the warm cache: exercises concurrent Analyze
	// over the shared immutable traces.
	warm, err := Run(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel run from a cold cache: exercises concurrent compile +
	// trace too.
	ResetCache()
	cold, err := Run(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated run for stability.
	again, err := Run(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 5 || len(warm) != 5 || len(cold) != 5 || len(again) != 5 {
		t.Fatalf("result counts: %d/%d/%d/%d", len(serial), len(warm), len(cold), len(again))
	}
	for i := range serial {
		sameResults(t, "warm-parallel", serial[i], warm[i])
		sameResults(t, "cold-parallel", serial[i], cold[i])
		sameResults(t, "repeat", serial[i], again[i])
	}
}

// TestRunResultOrdering pins the ordering contract: results come back
// in Programs order (progs.Names() by default) and Kept sessions in
// discovery order, regardless of worker scheduling.
func TestRunResultOrdering(t *testing.T) {
	// Default config: progs.Names() order.
	rs, err := Run(Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range progs.Names() {
		if rs[i].Program != name {
			t.Errorf("results[%d] = %s, want %s", i, rs[i].Program, name)
		}
	}
	// Explicit non-canonical order is preserved too.
	order := []string{"bps", "gcc", "qcd"}
	rs, err = Run(Config{Programs: order, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range order {
		if rs[i].Program != name {
			t.Errorf("subset results[%d] = %s, want %s", i, rs[i].Program, name)
		}
	}
	// Kept sessions ascend in discovery order (Session.Index).
	for _, r := range rs {
		for i := 1; i < len(r.Kept); i++ {
			if r.Kept[i-1].Session.Index >= r.Kept[i].Session.Index {
				t.Fatalf("%s: Kept out of discovery order at %d: %d >= %d",
					r.Program, i, r.Kept[i-1].Session.Index, r.Kept[i].Session.Index)
			}
		}
	}
}

// TestRunCancelsOnFirstError: a failing benchmark cancels the pool, the
// error surfaces, and no goroutines leak.
func TestRunCancelsOnFirstError(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Run(Config{
		Programs: []string{"bps", "no-such-benchmark", "qcd", "ctex", "gcc"},
		Workers:  4,
	})
	if err == nil {
		t.Fatal("expected an error for the unknown benchmark")
	}
	waitForGoroutines(t, before)
}

// TestRunNoGoroutineLeak: a successful parallel run leaves no workers
// behind.
func TestRunNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Run(Config{Programs: []string{"bps", "qcd"}, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines retries until the goroutine count returns to the
// pre-call level (small slack for runtime background goroutines).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, now)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheSingleFlight: two concurrent Runs over the same benchmark
// set build each pipeline exactly once.
func TestCacheSingleFlight(t *testing.T) {
	ResetCache()
	progsList := []string{"bps", "qcd"}
	start := builds.Load()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = Run(Config{Programs: progsList, Workers: 2})
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load() - start; got != int64(len(progsList)) {
		t.Errorf("cold builds = %d, want %d (single-flight violated)", got, len(progsList))
	}
	cacheMu.Lock()
	got := len(cache)
	cacheMu.Unlock()
	if got != len(progsList) {
		t.Errorf("cache size = %d, want %d", got, len(progsList))
	}
}

// TestCacheKeysByScale: the cache distinguishes (benchmark, scale)
// pairs — a scale-2 run must not be served a scale-1 trace.
func TestCacheKeysByScale(t *testing.T) {
	ResetCache()
	start := builds.Load()
	p1, _ := progs.ByName("qcd", 1)
	p2, _ := progs.ByName("qcd", 2)
	r1, err := runProgram(context.Background(), p1, model.Paper, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runProgram(context.Background(), p2, model.Paper, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() - start; got != 2 {
		t.Errorf("builds = %d, want 2 (distinct scales must not share entries)", got)
	}
	if r2.TotalWrites <= r1.TotalWrites {
		t.Errorf("scale 2 writes %d <= scale 1 writes %d: wrong artifact served",
			r2.TotalWrites, r1.TotalWrites)
	}
	// A repeated scale-1 run is served from the cache.
	if _, err := runProgram(context.Background(), p1, model.Paper, nil); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() - start; got != 2 {
		t.Errorf("builds after warm rerun = %d, want 2", got)
	}
}

// TestCacheServesAllTimingProfiles: one cached trace analysed under two
// timing profiles yields profile-dependent results without a rebuild.
func TestCacheServesAllTimingProfiles(t *testing.T) {
	ResetCache()
	start := builds.Load()
	p, _ := progs.ByName("bps", 1)
	a, err := runProgram(context.Background(), p, model.Paper, nil)
	if err != nil {
		t.Fatal(err)
	}
	alt := model.Paper
	alt.SoftwareLookup = model.Paper.SoftwareLookup / 2
	b, err := runProgram(context.Background(), p, alt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() - start; got != 1 {
		t.Errorf("builds = %d, want 1 (timings must not key the cache)", got)
	}
	if b.Summaries[model.CP].TMean >= a.Summaries[model.CP].TMean {
		t.Error("cheaper lookup did not reduce CP overhead from cached trace")
	}
	if a.Expansion != b.Expansion || a.StoreFraction != b.StoreFraction {
		t.Error("timing-independent artifacts differ across profiles")
	}
}
