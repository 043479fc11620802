package trace_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/objects"
	"edb/internal/progs"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// TestGenerateFuzzCorpus regenerates the checked-in FuzzTraceRead seed
// corpus under testdata/fuzz/FuzzTraceRead: one entry per benchmark
// workload, derived from the real phase-1 trace but truncated (first
// 48 objects, first 256 events) so the corpus stays a few KiB per
// workload. Skipped unless EDB_REGEN_FUZZ_CORPUS=1 — the corpus is a
// committed artifact, not a per-run output.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("EDB_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set EDB_REGEN_FUZZ_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range progs.Names() {
		p, err := progs.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		img, err := minic.CompileToImage(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := kernel.NewMachine(img, arch.PageSize4K)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := tracer.New(m, name).Run(p.Fuel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		small := truncateTrace(tr, 48, 256)
		var buf writerBuf
		if err := trace.WriteTo(&buf, small, trace.WriteOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(buf.b)) + ")\n"
		path := filepath.Join(dir, "workload-"+name)
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes serialized)\n", path, len(buf.b))

		// The same truncated trace in the columnar v3 format, blocked
		// small (64 events/block) so the seed spans several blocks.
		var v3 writerBuf
		if err := trace.WriteTo(&v3, small, trace.WriteOptions{Version: 3, BlockEvents: 64}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entry = "go test fuzz v1\n[]byte(" + strconv.Quote(string(v3.b)) + ")\n"
		path = filepath.Join(dir, "workload-"+name+"-v3")
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes serialized)\n", path, len(v3.b))
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// truncateTrace keeps the header plus the first maxObjs objects and
// maxEvents events — enough real structure to seed the fuzzer without
// committing megabytes. Object references past the truncated table are
// fine: the codec does not cross-check them.
func truncateTrace(tr *trace.Trace, maxObjs, maxEvents int) *trace.Trace {
	tab := objects.NewTable()
	for i, o := range tr.Objects.All() {
		if i >= maxObjs {
			break
		}
		tab.Add(o) // Add reassigns IDs in the original order
	}
	out := &trace.Trace{
		Program:    tr.Program,
		BaseCycles: tr.BaseCycles,
		Instret:    tr.Instret,
		Objects:    tab,
	}
	n := len(tr.Events)
	if n > maxEvents {
		n = maxEvents
	}
	out.Events = append(out.Events, tr.Events[:n]...)
	return out
}
