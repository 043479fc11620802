package sim

import (
	"testing"

	"edb/internal/sessions"
)

// White-box benchmarks splitting the replay cost into its two halves —
// the one-time trace prepass and the per-(session set, timing profile)
// replay core — on the bps workload (the suite's largest session
// population). The package-level BenchmarkSimReplay (repo root)
// measures the public engines end to end; these isolate where the time
// goes and are the numbers BENCH_replay_core.json records for the
// flat-memory core.

// BenchmarkPrepass measures sim.Prepare alone: what internal/exp pays
// once per (benchmark, scale) artifact, amortised across every replay
// of the cached trace.
func BenchmarkPrepass(b *testing.B) {
	tr := workloadTrace(b, "bps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
}

// BenchmarkReplayCore measures the flat replay core alone, with the
// prepass precomputed and shared across iterations: the marginal cost
// of one more replay of a cached artifact.
func BenchmarkReplayCore(b *testing.B) {
	tr := workloadTrace(b, "bps")
	set := sessions.Discover(tr)
	pp, err := Prepare(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := make([]Counting, len(set.Sessions))
		var pages [2]pageTab
		replayRange(set, pp, 0, int32(len(set.Sessions)), per, &pages)
		finishCounters(per, pp.TotalWrites)
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
}

// BenchmarkFrontEnd measures the two addressing front-ends on the same
// work: every workload's full discovered session set, replayed once by
// the prepassed in-memory shard (replayRange over a cached Prepare) and
// once by the streamed worker over blocks decoded up front (so neither
// side pays decode). The ratio is why both front-ends exist: the
// incremental member-only tables cost more per event than the prepass
// indexes, so a materialised trace keeps the prepass.
func BenchmarkFrontEnd(b *testing.B) {
	for _, name := range []string{"gcc", "ctex", "spice", "qcd", "bps"} {
		tr := workloadTrace(b, name)
		set := sessions.Discover(tr)
		n := int32(len(set.Sessions))
		pp, err := Prepare(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/prepass", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var pages [2]pageTab
				replayRange(set, pp, 0, n, make([]Counting, n), &pages)
			}
		})
		s, err := v3Source(b, tr, 0).Open()
		if err != nil {
			b.Fatal(err)
		}
		// Copy every decoded block out through a one-shard broadcast,
		// handing it a fresh buffer each time.
		r := replay{feeds: []chan *sharedBlock{make(chan *sharedBlock, 1)}, free: make(chan *sharedBlock, 1)}
		var blocks []*sharedBlock
		for s.Next() {
			if err := s.DecodeWrites(); err != nil {
				b.Fatal(err)
			}
			blk, _ := s.DecodeIR()
			r.free <- &sharedBlock{}
			r.broadcast(s.Summary(), blk)
			blocks = append(blocks, <-r.feeds[0])
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/stream", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := newStreamWorker(set, 0, n, make([]Counting, n))
				for _, sb := range blocks {
					w.consume(&sb.sum, &sb.blk)
				}
				w.settle()
			}
		})
	}
}
