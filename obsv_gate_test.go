// The obsv-bench gate (`make obsv-bench`): proves the observability
// layer's disabled path costs nothing, by (a) asserting the nil-sink
// micro-paths allocate zero, and (b) re-measuring the pipeline
// benchmarks with observation disabled against the committed
// BENCH_pipeline.json baseline — >5% ns/op regression or any material
// allocation growth fails.
//
// The gate is opt-in (EDB_OBSV_BENCH=1): it burns benchmark minutes
// and compares wall-clock against a baseline recorded on the CI host
// class, so it is a separate make target rather than part of
// `go test ./...`. EDB_OBSV_BENCH_SLACK overrides the 5% time slack
// (fraction, e.g. "0.20") for hosts unlike the baseline's.
package edb_test

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"edb/internal/exp"
	"edb/internal/obsv"
	"edb/internal/sim"
)

type benchBaseline struct {
	Benchmarks map[string]struct {
		NsOp     int64 `json:"ns_op"`
		BytesOp  int64 `json:"bytes_op"`
		AllocsOp int64 `json:"allocs_op"`
	} `json:"benchmarks"`
}

func TestObsvBenchGate(t *testing.T) {
	if os.Getenv("EDB_OBSV_BENCH") == "" {
		t.Skip("set EDB_OBSV_BENCH=1 (make obsv-bench) to run the disabled-path regression gate")
	}
	slack := 0.05
	if s := os.Getenv("EDB_OBSV_BENCH_SLACK"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("EDB_OBSV_BENCH_SLACK: %v", err)
		}
		slack = v
	}

	// (a) Micro contract: nil-sink observation allocates nothing.
	if n := testing.AllocsPerRun(1000, func() {
		var tr *obsv.Tracer
		sp := tr.StartSpan("phase")
		sp.Attr("k", "v")
		sp.End()
		tr.Event("cache-hit")
		var m *obsv.Metrics
		m.Inc("c")
		m.Observe("h", 1)
	}); n != 0 {
		t.Errorf("disabled-path observation allocates %v/op, want 0", n)
	}

	// (b) Macro contract: the unobserved pipeline matches the baseline.
	data, err := os.ReadFile("BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}

	check := func(name string, f func(b *testing.B)) {
		want, ok := base.Benchmarks[name]
		if !ok {
			t.Fatalf("BENCH_pipeline.json has no entry %q", name)
		}
		// Best of three: benchmark minima are far more stable than
		// means, and the gate asks "can the code still run this fast",
		// not "what is the expected latency".
		var ns, allocs, bytes int64
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(f)
			if i == 0 || r.NsPerOp() < ns {
				ns = r.NsPerOp()
			}
			allocs, bytes = r.AllocsPerOp(), r.AllocedBytesPerOp()
		}
		t.Logf("%s: %d ns/op (baseline %d), %d allocs/op (baseline %d)",
			name, ns, want.NsOp, allocs, want.AllocsOp)
		if limit := float64(want.NsOp) * (1 + slack); float64(ns) > limit {
			t.Errorf("%s: %d ns/op exceeds baseline %d by more than %.0f%%",
				name, ns, want.NsOp, slack*100)
		}
		// Allocation counts are deterministic per Go version; allow 2%
		// drift for scheduler-dependent pool bookkeeping, no more.
		if limit := float64(want.AllocsOp) * 1.02; float64(allocs) > limit {
			t.Errorf("%s: %d allocs/op exceeds baseline %d (disabled-path observation must not allocate)",
				name, allocs, want.AllocsOp)
		}
		if limit := float64(want.BytesOp) * 1.05; float64(bytes) > limit {
			t.Errorf("%s: %d B/op exceeds baseline %d", name, bytes, want.BytesOp)
		}
	}

	check("SimReplay/sequential", func(b *testing.B) {
		tr, set, _ := fixtures(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWithOptions(tr, set, sim.Options{Shards: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	check("ExpRunCached", func(b *testing.B) {
		exp.ResetCache()
		if _, err := exp.Run(exp.Config{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := exp.Run(exp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
