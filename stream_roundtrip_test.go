// Larger-than-RAM streaming round trip: the repo-root differential
// suite for the incremental v3 writer and the bounded-memory streamed
// replay path.
//
//	(a) byte identity: for every benchmark workload × block size, the
//	    incremental trace.Writer must emit a file byte-identical to the
//	    materialise-then-encode trace.WriteTo path — one emitter, two
//	    entry points.
//	(b) bounded memory: a synthetic trace whose v3 file exceeds a
//	    configured heap ceiling is written event-by-event and replayed
//	    with the streamed engine while a sampler holds peak heap growth
//	    under that ceiling — the file never fits in the memory the
//	    pipeline is allowed to use.
package edb_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/objects"
	"edb/internal/progs"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/trace"
	"edb/internal/tracer"
)

var (
	rtMu     sync.Mutex
	rtTraces = map[string]*trace.Trace{}
)

// workloadTraceRT compiles and traces one benchmark at scale 1,
// memoised across the suite.
func workloadTraceRT(tb testing.TB, name string) *trace.Trace {
	tb.Helper()
	rtMu.Lock()
	defer rtMu.Unlock()
	if tr := rtTraces[name]; tr != nil {
		return tr
	}
	p, err := progs.ByName(name, 1)
	if err != nil {
		tb.Fatal(err)
	}
	img, err := minic.CompileToImage(p.Source)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := tracer.New(m, p.Name).Run(p.Fuel)
	if err != nil {
		tb.Fatal(err)
	}
	rtTraces[name] = tr
	return tr
}

// writerBytes serialises tr through the incremental public Writer.
func writerBytes(tb testing.TB, tr *trace.Trace, blockEvents int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.WriterOptions{
		Program:     tr.Program,
		Objects:     tr.Objects,
		BlockEvents: blockEvents,
		SpoolDir:    tb.TempDir(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	w.SetCounters(tr.BaseCycles, tr.Instret)
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterByteIdenticalAllWorkloads is differential check (a) over
// the real benchmark traces.
func TestWriterByteIdenticalAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("traces all five workloads; skipped in -short")
	}
	for _, name := range progs.Names() {
		tr := workloadTraceRT(t, name)
		for _, be := range []int{1 << 10, 1 << 15, 0} {
			var want bytes.Buffer
			if err := trace.WriteTo(&want, tr, trace.WriteOptions{Version: 3, BlockEvents: be}); err != nil {
				t.Fatal(err)
			}
			got := writerBytes(t, tr, be)
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s blockEvents=%d: incremental writer output differs from WriteTo (%d vs %d bytes)",
					name, be, len(got), want.Len())
			}
		}
	}
}

// synthObjects is the object universe of the synthetic trace: globals
// packed into a deliberately small page footprint, so block skipping
// and the bloom filters see a dense bounded write range no matter how
// many events stream past.
const synthObjects = 64

func synthTable() (*objects.Table, []arch.Range) {
	tab := objects.NewTable()
	ranges := make([]arch.Range, 0, synthObjects)
	for i := 0; i < synthObjects; i++ {
		ba := arch.GlobalBase + arch.Addr(i*256)
		r := arch.Range{BA: ba, EA: ba + 64}
		tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g", SizeBytes: r.Len()})
		ranges = append(ranges, r)
	}
	return tab, ranges
}

// synthEvents streams a deterministic event sequence to emit: install
// every object, n writes spread across the objects by an LCG, remove
// every object. The same n always produces the same sequence, so the
// generator can feed a materialised oracle and the incremental writer
// identically.
func synthEvents(ranges []arch.Range, n int, emit func(trace.Event) error) error {
	for i, r := range ranges {
		e := trace.Event{Kind: trace.EvInstall, Obj: objects.ID(i + 1), BA: r.BA, EA: r.EA}
		if err := emit(e); err != nil {
			return err
		}
	}
	x := uint32(0x2545F491)
	for k := 0; k < n; k++ {
		x = x*1664525 + 1013904223
		r := ranges[int(x>>8)%len(ranges)]
		ba := r.BA + arch.Addr((x>>16)%16)*4
		e := trace.Event{
			Kind: trace.EvWrite, BA: ba, EA: ba + 4,
			PC: arch.TextBase + arch.Addr(x%50_000)*4,
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	for i := len(ranges) - 1; i >= 0; i-- {
		r := ranges[i]
		e := trace.Event{Kind: trace.EvRemove, Obj: objects.ID(i + 1), BA: r.BA, EA: r.EA}
		if err := emit(e); err != nil {
			return err
		}
	}
	return nil
}

// synthTrace materialises the synthetic sequence as an in-memory Trace.
func synthTrace(tb testing.TB, n int) *trace.Trace {
	tb.Helper()
	tab, ranges := synthTable()
	tr := &trace.Trace{Program: "synthetic", Objects: tab, BaseCycles: 40_000_000, Instret: 30_000_000}
	err := synthEvents(ranges, n, func(e trace.Event) error {
		tr.Events = append(tr.Events, e)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		tb.Fatalf("synthetic trace invalid: %v", err)
	}
	return tr
}

// TestSyntheticStreamedBitIdentical anchors the synthetic generator on
// a fits-in-RAM input: the incremental writer's file is byte-identical
// to the materialised encoding, and streamed replay of that file
// produces the same counters as the in-memory engine.
func TestSyntheticStreamedBitIdentical(t *testing.T) {
	tr := synthTrace(t, 50_000)
	var want bytes.Buffer
	if err := trace.WriteTo(&want, tr, trace.WriteOptions{Version: 3, BlockEvents: 4096}); err != nil {
		t.Fatal(err)
	}
	got := writerBytes(t, tr, 4096)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("incremental writer output differs from WriteTo on the synthetic trace")
	}

	set := sessions.Discover(tr)
	ref, err := sim.RunWithOptions(tr, set, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunWithOptions(nil, set, sim.Options{Source: trace.BytesSource(got)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.PerSession, ref.PerSession) {
		t.Error("streamed replay of the written file diverges from the in-memory engine")
	}
}

// heapCeiling is the configured memory ceiling for the >RAM test: peak
// heap growth across write and replay must stay under it while the v3
// file on disk is bigger than it.
const heapCeiling = 32 << 20

// sampleHeap starts a sampler that records peak HeapAlloc until the
// returned stop function is called; stop reports the peak.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				peakc <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peakc
	}
}

// TestLargerThanRAMStreamedReplay is bounded-memory check (b): the
// synthetic trace is streamed to disk event-by-event (never holding
// []Event), then replayed in one streamed pass — and the whole round
// trip's peak heap stays under heapCeiling even though the v3 file is
// larger than heapCeiling.
func TestLargerThanRAMStreamedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("streams millions of events; skipped in -short")
	}
	const nWrites = 6_000_000
	dir := t.TempDir()
	path := filepath.Join(dir, "synthetic.v3")
	tab, ranges := synthTable()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	// The collector lets garbage grow to GOGC% of the live heap before
	// it runs. Earlier tests in this package leave large heaps live (the
	// experiment artifact cache, the per-workload trace cache), and at
	// the default 100% the replay's garbage then piles up past the
	// ceiling before a collection. Scale GOGC so the headroom stays the
	// collector's 4 MiB minimum heap, as when the test runs alone.
	defer debug.SetGCPercent(debug.SetGCPercent(int(min(100, max(1, 100*(4<<20)/base)))))
	t.Logf("live heap at start %.1f MiB", float64(base)/(1<<20))

	stop := sampleHeap()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.WriterOptions{
		Program: "synthetic", Objects: tab, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := synthEvents(ranges, nWrites, w.Append); err != nil {
		t.Fatal(err)
	}
	w.SetCounters(40_000_000, 30_000_000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	writePeak := stop()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= heapCeiling {
		t.Fatalf("synthetic v3 file is %d bytes; must exceed the %d-byte ceiling to mean anything",
			fi.Size(), int64(heapCeiling))
	}

	// Discover sessions from the object table alone — no event slice
	// exists anywhere in this test.
	set := sessions.Discover(&trace.Trace{Program: "synthetic", Objects: tab})

	stop = sampleHeap()
	out, err := sim.RunWithOptions(nil, set, sim.Options{Source: trace.FileSource(path)})
	if err != nil {
		t.Fatal(err)
	}
	replayPeak := stop()

	if out.TotalWrites != nWrites {
		t.Errorf("streamed replay saw %d writes, want %d", out.TotalWrites, nWrites)
	}

	for phase, peak := range map[string]uint64{"write": writePeak, "replay": replayPeak} {
		growth := peak - base
		if peak < base {
			growth = 0
		}
		t.Logf("%s: peak heap growth %.1f MiB (file %.1f MiB, ceiling %.0f MiB)",
			phase, float64(growth)/(1<<20), float64(fi.Size())/(1<<20), float64(heapCeiling)/(1<<20))
		if growth > heapCeiling {
			t.Errorf("%s: peak heap growth %d exceeds the %d-byte ceiling", phase, growth, int64(heapCeiling))
		}
	}
}
