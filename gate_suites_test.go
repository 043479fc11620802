// Fixtures of the bench-gate suites declared in gate_test.go: what each
// suite measures and the correctness preflight it runs first.
package edb_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/exp"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/obsv"
	"edb/internal/progs"
	"edb/internal/serve"
	"edb/internal/serve/loadgen"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// obsvSetup measures the warm pipeline rerun with observation off,
// after proving the nil-sink micro-paths allocate nothing.
func obsvSetup(tb testing.TB) (map[string]any, []gateOp) {
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
		tb.Errorf("disabled-path observation allocates %v/op, want 0", n)
	}
	run := func(tb testing.TB) {
		_, err := exp.Run(exp.Config{})
		check(tb, err)
	}
	exp.ResetCache()
	run(tb) // warm the artifact cache: the row measures reruns
	return nil, []gateOp{{row: "ExpRunCached", op: run}}
}

// replaySetup measures the flat replay core on the bps trace, with and
// without a shared prepass.
func replaySetup(tb testing.TB) (map[string]any, []gateOp) {
	tr, set, _ := fixtures(tb)
	pp, err := sim.Prepare(tr)
	check(tb, err)
	replay := func(opts sim.Options) func(testing.TB) {
		return func(tb testing.TB) {
			_, err := sim.RunWithOptions(tr, set, opts)
			check(tb, err)
		}
	}
	return nil, []gateOp{
		{row: "SimReplay/sequential", op: replay(sim.Options{Shards: 1})},
		{row: "SimReplay/sequential-prepassed", op: replay(sim.Options{Shards: 1, Prepass: pp})},
		{row: "SimReplay/sharded-2-prepassed", op: replay(sim.Options{Shards: 2, Prepass: pp})},
	}
}

// traceGate is the trace suite's workload: the bps trace on disk in
// both formats, and a sparse monitor set (every 100th single-heap
// session — a handful of monitored objects against thousands of
// candidates, the regime block skipping exists for).
type traceGate struct {
	v2path, v3path string
	set            *sessions.Set
}

func traceSetup(tb testing.TB) (map[string]any, []gateOp) {
	tr, full, _ := fixtures(tb)
	var oneHeap, sub []sessions.Session
	for _, s := range full.Sessions {
		if s.Type == sessions.OneHeap {
			oneHeap = append(oneHeap, s)
		}
	}
	for i := 0; i < len(oneHeap); i += 100 {
		sub = append(sub, oneHeap[i])
	}
	if len(sub) == 0 {
		tb.Fatal("bps trace has no single-heap-object sessions")
	}
	n := len(tr.Events)
	facts := map[string]any{"program": "bps", "events": n, "sessions": len(sub), "block_events": trace.DefaultBlockEvents}
	write := func(version int) string {
		var buf bytes.Buffer
		check(tb, trace.WriteTo(&buf, tr, trace.WriteOptions{Version: version}))
		facts[fmt.Sprintf("v%d_bytes", version)] = buf.Len()
		path := filepath.Join(tb.TempDir(), fmt.Sprintf("bps.v%d.trace", version))
		check(tb, os.WriteFile(path, buf.Bytes(), 0o644))
		return path
	}
	fx := &traceGate{v2path: write(2), v3path: write(3), set: sessions.NewSet(sub, full.NumObjects())}
	fx.preflight(tb)
	return facts, []gateOp{
		{row: "TraceReplayFile/v2-read-sequential", op: func(tb testing.TB) { fx.replayV2File(tb) }, events: n},
		{row: "TraceReplayFile/v3-streamed-skip", op: func(tb testing.TB) { fx.replayV3(tb, 1) }, events: n},
		{row: "TraceReplayFile/v3-pipeline-sharded", op: func(tb testing.TB) { fx.replayV3(tb, gateShards) }, events: n},
		{row: "TraceReplayFile/v3-pershard-reread", op: func(tb testing.TB) { fx.replayV3PerShardReread(tb) }, events: n},
	}
}

// preflight: every from-file path must agree bit for bit with the v2
// in-memory replay on this exact set before its speed is worth
// comparing (the property suite holds this across many sets).
func (fx *traceGate) preflight(tb testing.TB) {
	want := fx.replayV2File(tb).PerSession
	same := func(path string, got []sim.Counting) {
		if !reflect.DeepEqual(want, got) {
			tb.Fatalf("%s replay counters diverge from the v2 in-memory replay on the gate set", path)
		}
	}
	same("streamed", fx.replayV3(tb, 1).PerSession)
	same("pipeline", fx.replayV3(tb, gateShards).PerSession)
	var merged []sim.Counting
	for _, out := range fx.replayV3PerShardReread(tb) {
		merged = append(merged, out.PerSession...)
	}
	same("per-shard re-read", merged)
}

// replayV2File materialises the v2 file into memory, then replays it
// in one pass.
func (fx *traceGate) replayV2File(tb testing.TB) *sim.Output {
	f, err := os.Open(fx.v2path)
	check(tb, err)
	tr, err := trace.Read(f)
	f.Close()
	check(tb, err)
	out, err := sim.RunWithOptions(tr, fx.set, sim.Options{Shards: 1})
	check(tb, err)
	return out
}

// replayV3 streams the v3 file block by block, never materialising
// []Event. One shard is the streamed path: block skip is on but fires
// on none of this set's blocks. More shards is the decode pipeline: one
// goroutine decodes the file once and fans blocks out to the workers.
func (fx *traceGate) replayV3(tb testing.TB, shards int) *sim.Output {
	out, err := sim.RunWithOptions(nil, fx.set, sim.Options{Source: trace.FileSource(fx.v3path), Shards: shards})
	check(tb, err)
	return out
}

// replayV3PerShardReread emulates the fan-out the decode pipeline
// replaced: gateShards concurrent workers, each opening the v3 file
// itself and replaying only its contiguous session range — the file is
// read and decoded once per shard.
func (fx *traceGate) replayV3PerShardReread(tb testing.TB) []*sim.Output {
	n := len(fx.set.Sessions)
	outs := make([]*sim.Output, gateShards)
	errs := make([]error, gateShards)
	var wg sync.WaitGroup
	for k := 0; k < gateShards; k++ {
		sub := sessions.NewSet(fx.set.Sessions[k*n/gateShards:(k+1)*n/gateShards], fx.set.NumObjects())
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			outs[k], errs[k] = sim.RunWithOptions(nil, sub, sim.Options{Source: trace.FileSource(fx.v3path), Shards: 1})
		}(k)
	}
	wg.Wait()
	check(tb, errors.Join(errs...))
	return outs
}

// serveSoak boots a real server on a loopback listener and drives
// 1024 hash-first submissions from 32 clients across 8 tenants and 8
// distinct specs, so at most one full upload crosses the wire per spec
// and everything else exercises the dedupe path.
func serveSoak(t *testing.T) (map[string]any, map[string]gateRow) {
	const submissions, tenants, specs, concurrency = 1024, 8, 8, 32
	tr, err := loadgen.BuildTrace("qcd", 1)
	check(t, err)
	payload, err := loadgen.EncodeTrace(tr, 3)
	check(t, err)
	goroutinesBefore := runtime.NumGoroutine()
	srv, err := serve.New(serve.Config{Workers: 2, StoreDir: t.TempDir(), Retries: 1})
	check(t, err)
	check(t, srv.Start())
	// Warm the artifact store with one full upload per spec, so the
	// timed soak measures steady-state serving rather than the one-time
	// convoy of every client queueing behind each spec's first replay.
	warm := &loadgen.Client{BaseURL: "http://" + srv.Addr(), Tenant: "warmup", DeadlineMS: 60_000}
	headers := make([]*serve.RequestHeader, specs)
	hashes := make([]string, specs)
	for i := range headers {
		headers[i] = &serve.RequestHeader{Program: tr.Program, Sessions: serve.SessionSpec{MaxSessions: i + 3}}
		hashes[i] = serve.HashRequest(headers[i], payload)
		if res := warm.Submit(context.Background(), headers[i], payload); res.Failed() {
			t.Fatalf("warm-up replay of spec %d failed: %v", i, res.Err)
		}
	}

	report := loadgen.NewReport()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &loadgen.Client{BaseURL: "http://" + srv.Addr(), Tenant: fmt.Sprintf("t%d", w%tenants), DeadlineMS: 60_000}
			for i := 0; i < submissions/concurrency; i++ {
				spec := (w + i) % specs
				report.Record(hashes[spec], c.SubmitHashFirst(context.Background(), headers[spec], payload, hashes[spec]))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Leak-free shutdown is part of the gate: drain, then the process
	// must settle back to its pre-server goroutine count.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	settle := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutinesBefore {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak across the soak: %d before, %d after\n%s",
			goroutinesBefore, after, buf[:runtime.Stack(buf, true)])
	}

	sum := report.Summarize()
	var m gateRow
	data, err := json.Marshal(sum)
	check(t, err)
	check(t, json.Unmarshal(data, &m))
	m["elapsed_ms"] = float64(elapsed.Microseconds()) / 1000
	m["throughput_rps"] = float64(sum.Total) / elapsed.Seconds()
	t.Logf("soak: %+v, %.0f req/s", sum, m["throughput_rps"])
	if sum.Failures != 0 {
		t.Logf("sample failure causes: %v", report.Errors())
	}
	facts := map[string]any{
		"program": tr.Program, "events": len(tr.Events), "sessions": len(sessions.Discover(tr).Sessions),
		"submissions": submissions, "tenants": tenants, "specs": specs, "concurrency": concurrency,
	}
	return facts, map[string]gateRow{soakRow: m}
}

const (
	// gateShards is the shard count of the pipeline-vs-reread pair.
	gateShards = 4
	// soakRow is the serve suite's one row: the soak's latency and
	// survivability summary.
	soakRow = "Soak/hash-first"
	// repatchMonitors is the repatch suite's watch-set size: one op
	// installs (and removes) this many word-granular monitors.
	repatchMonitors = 33
	// repatchFuel bounds the debuggee runs (bps completes well within).
	repatchFuel = 200_000_000
)

// repatchGate is the repatch suite's workload: a live optimized bps
// image, the 33-monitor set (word-granular ranges over its data
// segment) and a probed rewrite target.
type repatchGate struct {
	prog   progs.Program
	img    *codepatch.Image
	ranges []arch.Range
	// rwFn is a function whose store #0 tolerates a ±4 offset toggle.
	rwFn string
}

func repatchSetup(tb testing.TB) (map[string]any, []gateOp) {
	p := progs.BPS(1)
	prog, err := minic.Compile(p.Source)
	check(tb, err)
	img, err := codepatch.BuildImage(prog, codepatch.PatchOptions{Optimize: true}, arch.PageSize4K, nil)
	check(tb, err)
	fx := &repatchGate{prog: p, img: img}
	// Run the debuggee to completion first: the incremental ops are
	// measured against a fact-laden live image (executed-check table,
	// miss cache populated), the steady state a real mid-run mutation
	// sees — an empty-table image would flatter the invalidation scans.
	check(tb, img.M.Run(repatchFuel))

	// The monitor set: word-granular ranges walked across the data
	// symbols in address order, so the set is deterministic.
	var syms []arch.Range
	for _, r := range img.M.Image.Data {
		syms = append(syms, r)
	}
	sort.Slice(syms, func(a, b int) bool { return syms[a].BA < syms[b].BA })
	for _, r := range syms {
		for a := r.BA; a+4 <= r.EA && len(fx.ranges) < repatchMonitors; a += 4 {
			fx.ranges = append(fx.ranges, arch.Range{BA: a, EA: a + 4})
		}
	}
	if len(fx.ranges) < repatchMonitors {
		tb.Fatalf("bps data segment yields only %d word ranges, need %d", len(fx.ranges), repatchMonitors)
	}

	// Probe a rewritable store: the first function whose store #0
	// accepts a +4 offset delta (undone at once, so the image stays
	// canonical up to demotions — the steady state being measured).
	for _, f := range img.Prog.Funcs {
		if err := img.RewriteStore(f.Name, 0, 4); err == nil {
			check(tb, img.RewriteStore(f.Name, 0, -4))
			fx.rwFn = f.Name
			break
		} else if !errors.Is(err, codepatch.ErrNoSuchStore) && !errors.Is(err, codepatch.ErrImmOverflow) {
			tb.Fatal(err)
		}
	}
	if fx.rwFn == "" {
		tb.Fatal("no rewritable store in the bps image")
	}
	fx.preflight(tb)
	return map[string]any{"program": p.Name, "monitors": repatchMonitors}, []gateOp{
		{row: "Repatch/incremental-watchset", op: fx.incrementalWatchset},
		{row: "Repatch/incremental-rewrite", op: fx.incrementalRewrite},
		{row: "Repatch/full-rebuild", op: fx.fullRebuild},
	}
}

// preflight: after a full watch-set cycle and a rewrite toggle the
// live image must still verify and the engine's books must balance —
// the speed of an unsound engine is worth nothing.
func (fx *repatchGate) preflight(tb testing.TB) {
	fx.incrementalWatchset(tb)
	fx.incrementalRewrite(tb)
	if vs := fx.img.Verify(); len(vs) > 0 {
		tb.Fatalf("live image fails verification after the gate ops: %v", vs[0])
	}
	if st := fx.img.Stats; st.Installs != st.Removes {
		tb.Fatalf("unbalanced engine books after the toggle cycle: %+v", st)
	}
}

// incrementalWatchset grows the live watch set to the full monitor set,
// then shrinks it back — no recompile, no re-verify, no new machine.
func (fx *repatchGate) incrementalWatchset(tb testing.TB) {
	for _, r := range fx.ranges {
		check(tb, fx.img.InstallMonitor(r.BA, r.EA))
	}
	for _, r := range fx.ranges {
		check(tb, fx.img.RemoveMonitor(r.BA, r.EA))
	}
}

// incrementalRewrite toggles a store offset out and back, paying the
// in-place text writes, the dependence-map demotion sweep and two
// soundness re-verifications.
func (fx *repatchGate) incrementalRewrite(tb testing.TB) {
	check(tb, fx.img.RewriteStore(fx.rwFn, 0, 4))
	check(tb, fx.img.RewriteStore(fx.rwFn, 0, -4))
}

// fullRebuild is the stop-the-world alternative: compile, optimized
// patch, interprocedural verification, assemble, machine, attach,
// reinstall the watch set — and re-execute the debuggee, because a
// from-scratch re-patch abandons the live machine and a session paused
// mid-run must replay to its pause point. That replay is exactly the
// cost the incremental engine avoids; one full program run matches the
// execution the incremental image's setup performed.
func (fx *repatchGate) fullRebuild(tb testing.TB) {
	prog, err := minic.Compile(fx.prog.Source)
	check(tb, err)
	res, err := codepatch.PatchWithOptions(prog, codepatch.PatchOptions{Optimize: true})
	check(tb, err)
	if v := analysis.VerifyPatchedWithDeps(prog, res.DepMap); len(v) > 0 {
		tb.Fatalf("rebuild unsound: %v", v[0])
	}
	timg, err := asm.Assemble(prog)
	check(tb, err)
	m, err := kernel.NewMachine(timg, arch.PageSize4K)
	check(tb, err)
	w, err := codepatch.Attach(m, nil)
	check(tb, err)
	for _, r := range fx.ranges {
		check(tb, w.InstallMonitor(r.BA, r.EA))
	}
	check(tb, m.Run(repatchFuel))
}

// traceDigests pins the v3 SHA-256 of every workload's scale-1 trace
// (internal/tracer's TestTraceDigestGolden owns the file).
const traceDigests = "internal/tracer/testdata/golden_trace_digests.json"

// tracegenSetup measures phase 1 per workload: a fresh machine over
// the compiled image, traced to completion. The preflight traces each
// workload once and checks its digest: a faster interpreter that
// changes one trace byte measures nothing.
func tracegenSetup(tb testing.TB) (map[string]any, []gateOp) {
	data, err := os.ReadFile(traceDigests)
	check(tb, err)
	var want map[string]string
	check(tb, json.Unmarshal(data, &want))
	facts := map[string]any{"scale": 1}
	var ops []gateOp
	for _, name := range progs.Names() {
		p, err := progs.ByName(name, 1)
		check(tb, err)
		img, err := minic.CompileToImage(p.Source)
		check(tb, err)
		run := func(tb testing.TB) *trace.Trace {
			m, err := kernel.NewMachine(img, arch.PageSize4K)
			check(tb, err)
			tr, err := tracer.New(m, name).Run(p.Fuel)
			check(tb, err)
			return tr
		}
		tr := run(tb)
		h := sha256.New()
		check(tb, trace.WriteTo(h, tr, trace.WriteOptions{Version: 3}))
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			tb.Fatalf("%s: trace digest %s, want %s from %s", name, got, want[name], traceDigests)
		}
		facts[name+"_instret"] = tr.Instret
		ops = append(ops, gateOp{row: "Tracegen/" + name, op: func(tb testing.TB) { run(tb) }, instret: tr.Instret})
	}
	return facts, ops
}

// tracegenBars holds each workload's tracegen time and allocations to
// the recorded row.
func tracegenBars() []bar {
	var bars []bar
	for _, name := range progs.Names() {
		row := "Tracegen/" + name
		bars = append(bars,
			within(row+" ns_op", 1+clockSlack, 0),
			within(row+" allocs_op", 1.02, 1),
			holds(row+" mips", ">", 0, recorded),
		)
	}
	return append(bars, holds("scale", "=", 1, recorded))
}
