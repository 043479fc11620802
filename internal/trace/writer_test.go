package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edb/internal/fault"
	"edb/internal/objects"
)

// writeIncremental serialises tr through the public incremental Writer
// (spooled mode), event by event.
func writeIncremental(t *testing.T, tr *Trace, blockEvents int, spoolDir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{
		Program:     tr.Program,
		Objects:     tr.Objects,
		BlockEvents: blockEvents,
		SpoolDir:    spoolDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	w.SetCounters(tr.BaseCycles, tr.Instret)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV3WriterByteIdentical: the incremental spooled Writer and the
// direct WriteTo path must produce byte-identical files for every
// blocking — they are one emitter, and the differential suite at the
// repo root extends this to all five benchmark workloads.
func TestV3WriterByteIdentical(t *testing.T) {
	tr := sampleTrace()
	for _, be := range []int{1, 2, 3, 5, 0} {
		var direct bytes.Buffer
		if err := WriteTo(&direct, tr, WriteOptions{Version: 3, BlockEvents: be}); err != nil {
			t.Fatal(err)
		}
		inc := writeIncremental(t, tr, be, t.TempDir())
		if !bytes.Equal(direct.Bytes(), inc) {
			t.Fatalf("blockEvents=%d: incremental writer output differs from WriteTo", be)
		}
	}
}

// TestV3WriterSpoolRemoved: the spool temp file is gone after Close
// (and after Discard).
func TestV3WriterSpoolRemoved(t *testing.T) {
	dir := t.TempDir()
	tr := sampleTrace()
	writeIncremental(t, tr, 2, dir)
	w, err := NewWriter(io.Discard, WriterOptions{Program: "demo", Objects: tr.Objects, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(tr.Events[0]); err != nil {
		t.Fatal(err)
	}
	w.Discard()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spool files left behind: %v", ents)
	}
}

// TestV3WriterCounts: the writer's running tallies match the trace.
func TestV3WriterCounts(t *testing.T) {
	tr := sampleTrace()
	w, err := NewWriter(io.Discard, WriterOptions{Program: tr.Program, Objects: tr.Objects, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ins, rem, wri := w.Counts()
	wantIns, wantRem, wantWri := tr.Counts()
	if ins != uint64(wantIns) || rem != uint64(wantRem) || wri != uint64(wantWri) {
		t.Fatalf("Counts() = %d/%d/%d, want %d/%d/%d", ins, rem, wri, wantIns, wantRem, wantWri)
	}
	if w.NumEvents() != uint64(len(tr.Events)) {
		t.Fatalf("NumEvents() = %d, want %d", w.NumEvents(), len(tr.Events))
	}
}

// TestV3WriterMisuse: appends and flushes after Close fail, nil object
// tables are rejected, and unknown WriteTo versions error.
func TestV3WriterMisuse(t *testing.T) {
	tr := sampleTrace()
	w, err := NewWriter(io.Discard, WriterOptions{Program: "demo", Objects: tr.Objects, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(tr.Events[0]); err == nil || !strings.Contains(err.Error(), "append after Close") {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("second Close after misuse did not return the sticky error")
	}

	if _, err := NewWriter(io.Discard, WriterOptions{Program: "demo"}); err == nil ||
		!strings.Contains(err.Error(), "nil object table") {
		t.Fatalf("nil table: %v", err)
	}
	if err := WriteTo(io.Discard, tr, WriteOptions{Version: 7}); err == nil ||
		!strings.Contains(err.Error(), "unsupported version 7") {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := NewWriter(io.Discard, WriterOptions{
		Program: "demo", Objects: tr.Objects, SpoolDir: filepath.Join(t.TempDir(), "missing"),
	}); err == nil || !strings.Contains(err.Error(), "creating spool") {
		t.Fatalf("bad spool dir: %v", err)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

var errSink = errors.New("sink failed")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errSink
	}
	if len(p) > f.budget {
		n := f.budget
		f.budget = 0
		return n, errSink
	}
	f.budget -= len(p)
	return len(p), nil
}

// TestV3WriterSinkError: a failing destination surfaces the error from
// Close and sticks.
func TestV3WriterSinkError(t *testing.T) {
	tr := sampleTrace()
	w, err := NewWriter(&failWriter{budget: 8}, WriterOptions{
		Program: tr.Program, Objects: tr.Objects, BlockEvents: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want sink error", err)
	}
	if err := w.Close(); !errors.Is(err, errSink) {
		t.Fatalf("second Close() = %v, want sticky sink error", err)
	}
	// Direct mode hits the same sink paths through WriteTo.
	if err := WriteTo(&failWriter{budget: 8}, tr, WriteOptions{Version: 3, BlockEvents: 2}); !errors.Is(err, errSink) {
		t.Fatalf("WriteTo = %v, want sink error", err)
	}
	if err := WriteTo(&failWriter{budget: 64}, tr, WriteOptions{Version: 3, BlockEvents: 2}); !errors.Is(err, errSink) {
		t.Fatalf("WriteTo (block) = %v, want sink error", err)
	}
}

// TestV3WriterFaultInjection: NewWriter fires the same SiteTraceWrite
// fault site as every serialisation entry point, before any byte or
// spool file exists.
func TestV3WriterFaultInjection(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteTraceWrite, Key: "demo", Kind: fault.Permanent, Times: 1}))
	defer fault.Deactivate()
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, WriterOptions{Program: "demo", Objects: objects.NewTable()}); err == nil {
		t.Fatal("armed write site did not fault")
	}
	if buf.Len() != 0 {
		t.Fatalf("faulted NewWriter still emitted %d bytes", buf.Len())
	}
}

// TestV3WriterCorruptionOrder: the per-frame corruption hook fires in
// final file order through the spooled writer exactly as it does
// through WriteTo — the mutated outputs are byte-identical, and the
// corruption is caught on read.
func TestV3WriterCorruptionOrder(t *testing.T) {
	const frames = 7 // header + 3 blocks x (summary, columns)
	tr := sampleTrace()
	for seed := int64(0); seed < 14; seed++ {
		plan := func() *fault.Plan {
			return fault.NewPlan(seed, fault.Rule{
				Site: fault.SiteTraceCorrupt, Kind: fault.Corrupt,
				After: uint64(seed) % frames, Times: 1})
		}
		fault.Activate(plan())
		var direct bytes.Buffer
		err := WriteTo(&direct, tr, WriteOptions{Version: 3, BlockEvents: 2})
		fault.Deactivate()
		if err != nil {
			t.Fatalf("seed %d: direct write: %v", seed, err)
		}

		fault.Activate(plan())
		var inc bytes.Buffer
		w, err := NewWriter(&inc, WriterOptions{
			Program: tr.Program, Objects: tr.Objects, BlockEvents: 2, SpoolDir: t.TempDir()})
		if err != nil {
			t.Fatalf("seed %d: NewWriter: %v", seed, err)
		}
		for _, e := range tr.Events {
			if err := w.Append(e); err != nil {
				t.Fatalf("seed %d: append: %v", seed, err)
			}
		}
		w.SetCounters(tr.BaseCycles, tr.Instret)
		err = w.Close()
		fault.Deactivate()
		if err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}

		if !bytes.Equal(direct.Bytes(), inc.Bytes()) {
			t.Fatalf("seed %d: corrupted outputs differ between direct and spooled paths", seed)
		}
		if _, err := Read(bytes.NewReader(inc.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("seed %d: injected corruption not caught: %v", seed, err)
		}
	}
}

// TestWriteToV2Shims: WriteTo with version 0 (the default) and 2
// produce identical v2 files. (The deprecated Write shim it also
// compared against is gone.)
func TestWriteToV2Shims(t *testing.T) {
	tr := sampleTrace()
	var v0, v2 bytes.Buffer
	if err := WriteTo(&v0, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(&v2, tr, WriteOptions{Version: 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v0.Bytes(), v2.Bytes()) {
		t.Fatal("WriteTo v0/v2 outputs differ")
	}
}
