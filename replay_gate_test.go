// The replay-core bench gate (`make replay-gate`): holds the
// flat-memory replay core to the committed BENCH_replay_core.json
// numbers. Two checks:
//
//	(a) static: the committed file itself must still document the
//	    rewrite's win — ≥2x ns/op and ≥5x allocs/op over the recorded
//	    pre-rewrite engine on the sequential replay. This runs in every
//	    `go test ./...` (it reads JSON, no benchmarking).
//
//	(b) dynamic (opt-in, EDB_REPLAY_BENCH=1): re-measure the replay
//	    benchmarks and fail on a >10% ns/op regression or any material
//	    allocation growth against the committed numbers. Burns
//	    benchmark minutes and assumes the baseline's host class, so it
//	    is a separate make target rather than part of `go test ./...`.
//	    EDB_REPLAY_BENCH_SLACK overrides the 10% time slack (fraction,
//	    e.g. "0.25") for hosts unlike the baseline's.
package edb_test

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"edb/internal/sim"
)

type replayBaseline struct {
	PreRewrite map[string]struct {
		NsOp     int64 `json:"ns_op"`
		AllocsOp int64 `json:"allocs_op"`
	} `json:"pre_rewrite"`
	Benchmarks map[string]struct {
		NsOp     int64 `json:"ns_op"`
		BytesOp  int64 `json:"bytes_op"`
		AllocsOp int64 `json:"allocs_op"`
	} `json:"benchmarks"`
}

func loadReplayBaseline(t *testing.T) *replayBaseline {
	t.Helper()
	data, err := os.ReadFile("BENCH_replay_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var base replayBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	return &base
}

// TestReplayCoreBaselineRecordsWin is check (a): the committed baseline
// must document at least the 2x time / 5x allocation improvement the
// flat rewrite was built for. It guards the file against a quiet
// regeneration that papers over a regression.
func TestReplayCoreBaselineRecordsWin(t *testing.T) {
	base := loadReplayBaseline(t)
	old, ok := base.PreRewrite["SimReplay/sequential"]
	if !ok {
		t.Fatal("BENCH_replay_core.json lacks pre_rewrite SimReplay/sequential")
	}
	cur, ok := base.Benchmarks["SimReplay/sequential"]
	if !ok {
		t.Fatal("BENCH_replay_core.json lacks benchmarks SimReplay/sequential")
	}
	if cur.NsOp*2 > old.NsOp {
		t.Errorf("recorded sequential replay %d ns/op is not >=2x faster than pre-rewrite %d ns/op",
			cur.NsOp, old.NsOp)
	}
	if cur.AllocsOp*5 > old.AllocsOp {
		t.Errorf("recorded sequential replay %d allocs/op is not >=5x below pre-rewrite %d allocs/op",
			cur.AllocsOp, old.AllocsOp)
	}
}

// TestReplayBenchGate is check (b): re-measure against the committed
// numbers.
func TestReplayBenchGate(t *testing.T) {
	if os.Getenv("EDB_REPLAY_BENCH") == "" {
		t.Skip("set EDB_REPLAY_BENCH=1 (make replay-gate) to run the replay-core regression gate")
	}
	slack := 0.10
	if s := os.Getenv("EDB_REPLAY_BENCH_SLACK"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("EDB_REPLAY_BENCH_SLACK: %v", err)
		}
		slack = v
	}
	base := loadReplayBaseline(t)

	check := func(name string, f func(b *testing.B)) {
		want, ok := base.Benchmarks[name]
		if !ok {
			t.Fatalf("BENCH_replay_core.json has no entry %q", name)
		}
		// Best of three: benchmark minima are far more stable than
		// means, and the gate asks "can the code still run this fast".
		var ns, allocs int64
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(f)
			if i == 0 || r.NsPerOp() < ns {
				ns = r.NsPerOp()
			}
			allocs = r.AllocsPerOp()
		}
		t.Logf("%s: %d ns/op (baseline %d), %d allocs/op (baseline %d)",
			name, ns, want.NsOp, allocs, want.AllocsOp)
		if limit := float64(want.NsOp) * (1 + slack); float64(ns) > limit {
			t.Errorf("%s: %d ns/op exceeds baseline %d by more than %.0f%%",
				name, ns, want.NsOp, slack*100)
		}
		// Allocation counts are deterministic per Go version; allow 2%
		// drift for scheduler-dependent bookkeeping, no more.
		if limit := float64(want.AllocsOp)*1.02 + 1; float64(allocs) > limit {
			t.Errorf("%s: %d allocs/op exceeds baseline %d", name, allocs, want.AllocsOp)
		}
	}

	tr, set, _ := fixtures(t)
	pp, err := sim.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	check("SimReplay/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWithOptions(tr, set, sim.Options{Shards: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	check("SimReplay/sequential-prepassed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWithOptions(tr, set, sim.Options{Shards: 1, Prepass: pp}); err != nil {
				b.Fatal(err)
			}
		}
	})
	check("SimReplay/sharded-2-prepassed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWithOptions(tr, set, sim.Options{Shards: 2, Prepass: pp}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
