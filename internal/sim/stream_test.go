package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"edb/internal/fault"
	"edb/internal/obsv"
	"edb/internal/progs"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// v3Source serialises tr as a v3 byte buffer with the given blocking
// and wraps it as a StreamSource.
func v3Source(t testing.TB, tr *trace.Trace, blockEvents int) trace.StreamSource {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{Version: 3, BlockEvents: blockEvents}); err != nil {
		t.Fatal(err)
	}
	return trace.BytesSource(buf.Bytes())
}

// streamed replays src through the streamed front-end with the given
// shard count.
func streamed(src trace.StreamSource, set *sessions.Set, shards int) (*Output, error) {
	return RunWithOptions(nil, set, Options{Source: src, Shards: shards})
}

// spanInts returns the integer attribute key of every recorded span
// named span, in completion order.
func spanInts(t *testing.T, obs *obsv.Tracer, span, key string) []int64 {
	t.Helper()
	var out []int64
	for _, r := range obs.Records() {
		if r.Kind != obsv.KindSpan || r.Name != span {
			continue
		}
		for _, kv := range r.Attrs {
			if kv.Key == key {
				v, err := strconv.ParseInt(kv.Val, 10, 64)
				if err != nil {
					t.Fatalf("%s.%s = %q: %v", span, key, kv.Val, err)
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// oneHeapSet returns the session set watching only the first
// single-heap-object session of full.
func oneHeapSet(t *testing.T, full *sessions.Set) *sessions.Set {
	t.Helper()
	for _, s := range full.Sessions {
		if s.Type == sessions.OneHeap {
			return sessions.NewSet([]sessions.Session{s}, full.NumObjects())
		}
	}
	t.Fatal("no OneHeap session discovered")
	return nil
}

// randomSubset picks a random subset of the discovered sessions — the
// sparse monitor sets the skip path exists for — rebuilt as a Set over
// the same object universe. Empty subsets are allowed.
func randomSubset(rng *rand.Rand, set *sessions.Set) *sessions.Set {
	var sub []sessions.Session
	for _, s := range set.Sessions {
		if rng.Intn(4) == 0 {
			sub = append(sub, s)
		}
	}
	return sessions.NewSet(sub, set.NumObjects())
}

// TestStreamDifferential is the central property of the streaming
// engine: for random traces × random session subsets, streamed replay
// (block skip always on) ≡ the in-memory engine — all counters
// bit-identical — across block sizes and shard counts. The in-memory
// side is itself pinned to the naive per-session oracle by
// TestOnePassMatchesNaiveOracle, so this transitively anchors the whole
// v3 path to first principles.
func TestStreamDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := checkedTrace(t, seed, 1500)
		full := sessions.Discover(tr)
		rng := rand.New(rand.NewSource(seed * 31))
		sets := []*sessions.Set{full, randomSubset(rng, full), randomSubset(rng, full)}
		for si, set := range sets {
			want, err := sequential(tr, set)
			if err != nil {
				t.Fatal(err)
			}
			wantHash := canonicalHash(want)
			for _, be := range []int{1, 16, 301, trace.DefaultBlockEvents} {
				src := v3Source(t, tr, be)
				for _, shards := range shardCounts() {
					got, err := streamed(src, set, shards)
					if err != nil {
						t.Fatalf("seed %d set %d be=%d shards=%d: %v",
							seed, si, be, shards, err)
					}
					if h := canonicalHash(got); h != wantHash {
						t.Fatalf("seed %d set %d be=%d shards=%d: stream hash %s != in-memory %s",
							seed, si, be, shards, h, wantHash)
					}
				}
			}
		}
	}
}

// TestStreamBlockSizeInvariance is the metamorphic relation: re-blocking
// a workload trace (1-event blocks up to 64Ki) must not change a single
// counter.
func TestStreamBlockSizeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a benchmark workload; skipped in -short")
	}
	tr := workloadTrace(t, "bps")
	set := sessions.Discover(tr)
	want, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := canonicalHash(want)
	for _, be := range []int{1, 1 << 10, 8192, 1 << 15, 1 << 16} {
		got, err := streamed(v3Source(t, tr, be), set, 4)
		if err != nil {
			t.Fatalf("be=%d: %v", be, err)
		}
		if h := canonicalHash(got); h != wantHash {
			t.Fatalf("be=%d: hash %s != %s", be, h, wantHash)
		}
	}
}

// TestStreamAllWorkloads runs the streamed-vs-in-memory differential
// over every benchmark workload at scale 1 — real traces, full
// discovered session sets, skip on.
func TestStreamAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("traces all five workloads; skipped in -short")
	}
	for _, name := range progs.Names() {
		tr := workloadTrace(t, name)
		set := sessions.Discover(tr)
		want, err := sequential(tr, set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamed(v3Source(t, tr, 0), set, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if canonicalHash(got) != canonicalHash(want) {
			t.Fatalf("%s: streamed replay diverged from in-memory", name)
		}
	}
}

// TestStreamSparseSubset forces the skip path to actually fire: a
// one-session monitor set over a workload trace must skip a nonzero
// number of blocks yet stay bit-identical to the in-memory replay.
func TestStreamSparseSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a benchmark workload; skipped in -short")
	}
	tr := workloadTrace(t, "bps")
	set := oneHeapSet(t, sessions.Discover(tr))
	want, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewTracer(64)
	got, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 1024), Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if skipped := spanInts(t, obs, "replay-stream-shard", "skipped_blocks"); len(skipped) != 1 || skipped[0] == 0 {
		t.Fatalf("sparse one-session set skipped %v blocks — the fast path never fires", skipped)
	}
	if canonicalHash(got) != canonicalHash(want) {
		t.Fatal("skipping replay diverged from in-memory on sparse set")
	}
}

// TestStreamSingleHeapSkipsAlmostAll pins the decoder-level skip where
// it pays: a single-heap watch on spice touches a handful of pages, so
// at the default blocking at least 90 of the trace's 94 blocks keep
// their write columns undecoded — and the counters stay bit-identical
// to in-memory replay.
func TestStreamSingleHeapSkipsAlmostAll(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a benchmark workload; skipped in -short")
	}
	tr := workloadTrace(t, "spice")
	set := oneHeapSet(t, sessions.Discover(tr))
	want, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewTracer(64)
	got, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 0), Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	blocks := spanInts(t, obs, "replay-stream-decode", "blocks")
	skipped := spanInts(t, obs, "replay-stream-decode", "skipped_write_columns")
	if len(skipped) != 1 || skipped[0] < 90 {
		t.Fatalf("single-heap spice watch skipped %v of %v blocks, want at least 90", skipped, blocks)
	}
	if !reflect.DeepEqual(got.PerSession, want.PerSession) {
		t.Fatal("skipping replay diverged from in-memory on the single-heap spice watch")
	}
}

// TestStreamShardLevelSkip pins the second skip level: on a sparse bps
// set (every 100th single-heap session) the full set's member pages
// intersect every block, so the decoder skips nothing, yet some shard's
// narrower set still skips replaying writes — and the four shards
// together stay bit-identical to in-memory replay.
func TestStreamShardLevelSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a benchmark workload; skipped in -short")
	}
	tr := workloadTrace(t, "bps")
	full := sessions.Discover(tr)
	var sub []sessions.Session
	oneHeap := 0
	for _, s := range full.Sessions {
		if s.Type != sessions.OneHeap {
			continue
		}
		if oneHeap%100 == 0 {
			sub = append(sub, s)
		}
		oneHeap++
	}
	set := sessions.NewSet(sub, full.NumObjects())
	want, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewTracer(64)
	got, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 0), Shards: 4, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if d := spanInts(t, obs, "replay-stream-decode", "skipped_write_columns"); len(d) != 1 || d[0] != 0 {
		t.Errorf("decoder skipped %v blocks on the %d-session set, want 0", d, len(set.Sessions))
	}
	shardSkips := spanInts(t, obs, "replay-stream-shard", "skipped_blocks")
	fired := false
	for _, n := range shardSkips {
		fired = fired || n > 0
	}
	if len(shardSkips) != 4 || !fired {
		t.Errorf("shard skip counts %v: want 4 shards, at least one skipping", shardSkips)
	}
	if !reflect.DeepEqual(got.PerSession, want.PerSession) {
		t.Fatal("sharded streamed replay diverged from in-memory on the sparse bps set")
	}
}

// TestStreamEmptySet covers the degenerate zero-session replay.
func TestStreamEmptySet(t *testing.T) {
	tr := checkedTrace(t, 1, 400)
	set := sessions.NewSet(nil, sessions.Discover(tr).NumObjects())
	out, err := streamed(v3Source(t, tr, 32), set, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerSession) != 0 || out.TotalWrites == 0 {
		t.Fatalf("empty-set output: %+v", out)
	}
}

// TestStreamRejectsCorrupt checks decode errors surface through
// streamed replay from any worker.
func TestStreamRejectsCorrupt(t *testing.T) {
	tr := checkedTrace(t, 2, 400)
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{Version: 3, BlockEvents: 16}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x10
	set := sessions.Discover(tr)
	if _, err := streamed(trace.BytesSource(data), set, 3); err == nil {
		t.Fatal("corrupt stream replayed without error")
	}
	if _, err := streamed(trace.BytesSource(data[:8]), set, 0); err == nil {
		t.Fatal("truncated stream replayed without error")
	}
}

// TestStreamObserved pins Options.Obs on streamed replay: observation
// never feeds back (bit-identical counters), and the expected span
// structure appears — the engine span with its events_per_sec attribute
// and one span per shard worker carrying the skipped-block count.
func TestStreamObserved(t *testing.T) {
	tr := checkedTrace(t, 9, 1200)
	set := sessions.Discover(tr)
	quiet, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewTracer(256)
	const k = 2
	got, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 64), Shards: k, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if got.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed streamed replay diverged: %+v != %+v",
				i, got.PerSession[i], quiet.PerSession[i])
		}
	}
	names := spanNames(obs)
	if names["replay-stream"] != 1 {
		t.Errorf("want 1 replay-stream span, got %v", names)
	}
	if names["replay-stream-shard"] != k {
		t.Errorf("want %d replay-stream-shard spans, got %v", k, names)
	}
	if !spanHasAttr(obs, "replay-stream", "events_per_sec") {
		t.Error("replay-stream span lacks events_per_sec attribute")
	}
	if !spanHasAttr(obs, "replay-stream-shard", "skipped_blocks") {
		t.Error("replay-stream-shard span lacks skipped_blocks attribute")
	}
	// The streamed worker numbers pages and placements its own way, but
	// its shards list the same (page, session) entries as the in-memory
	// shards over the same ranges.
	mem := obsv.NewTracer(256)
	if _, err := RunWithOptions(tr, set, Options{Shards: k, Obs: mem}); err != nil {
		t.Fatal(err)
	}
	sum := func(xs []int64) (n int64) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	for _, key := range []string{"entries_4k", "entries_8k"} {
		got := spanInts(t, obs, "replay-stream-shard", key)
		want := sum(spanInts(t, mem, "replay-shard", key))
		if len(got) != k || sum(got) != want || want == 0 {
			t.Errorf("replay-stream-shard %s = %v, want %d shards summing to the in-memory %d", key, got, k, want)
		}
	}
}

// TestStreamFaultInjection: SiteSimReplay fires on the streamed engine
// exactly like the in-memory ones.
func TestStreamFaultInjection(t *testing.T) {
	tr := checkedTrace(t, 10, 300)
	set := sessions.Discover(tr)
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteSimReplay, Kind: fault.Transient, Times: 1,
	}))
	defer fault.Deactivate()
	if _, err := streamed(v3Source(t, tr, 64), set, 0); err == nil {
		t.Fatal("injected replay fault not surfaced")
	}
	if _, err := streamed(v3Source(t, tr, 64), set, 0); err != nil {
		t.Fatalf("fault exhausted but replay still fails: %v", err)
	}
}

// flakySource fails every Open after the first. Before the decode
// pipeline each extra shard worker re-opened the source, so a sharded
// replay over this source failed; now it must succeed with exactly one
// Open no matter the shard count.
type flakySource struct {
	inner trace.StreamSource
	opens int
}

func (f *flakySource) Open() (*trace.Stream, error) {
	f.opens++
	if f.opens > 1 {
		return nil, errors.New("flaky source: re-open refused")
	}
	return f.inner.Open()
}

// TestStreamSingleOpen: a sharded streamed replay opens its source
// exactly once — the shared decode pipeline replaced per-shard
// re-reads — and still matches the in-memory engine bit for bit.
func TestStreamSingleOpen(t *testing.T) {
	tr := checkedTrace(t, 11, 300)
	set := sessions.Discover(tr)
	if len(set.Sessions) < 2 {
		t.Skip("need >=2 sessions for a second worker")
	}
	want, err := RunWithOptions(tr, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		src := &flakySource{inner: v3Source(t, tr, 64)}
		got, err := RunWithOptions(nil, set, Options{Source: src, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if src.opens != 1 {
			t.Fatalf("shards=%d: source opened %d times, want 1", shards, src.opens)
		}
		if !reflect.DeepEqual(got.PerSession, want.PerSession) {
			t.Fatalf("shards=%d: pipeline counters diverge from in-memory replay", shards)
		}
	}
}
