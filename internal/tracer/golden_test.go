package tracer

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/progs"
	"edb/internal/trace"
)

// digestGoldenPath pins the SHA-256 of every workload's v3-encoded
// trace. Tracing is deterministic, so a drifting digest means the
// tracer, the interpreter or the encoder changed what they produce.
// Regenerate deliberately with EDB_REGEN_GOLDEN=1 and review the diff.
const digestGoldenPath = "testdata/golden_trace_digests.json"

// leakSource exits with eight heap blocks still live, so the trace ends
// with the tracer's teardown removes.
const leakSource = `
int main() {
	int i;
	int p;
	for (i = 0; i < 8; i = i + 1) {
		p = alloc(16);
		p[0] = i;
	}
	return 0;
}`

// traceDigest traces src once and hashes its v3 encoding at the
// default block size.
func traceDigest(t *testing.T, name, src string, fuel uint64) string {
	t.Helper()
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(m, name).Run(fuel)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := trace.WriteTo(h, tr, trace.WriteOptions{Version: 3}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigestGolden traces the five workloads, smc and the leaking
// program twice each at scale 1: both traces must hash alike and match
// the golden.
func TestTraceDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("traces every workload twice; skipped in -short")
	}
	type program struct {
		src  string
		fuel uint64
	}
	programs := map[string]program{"leak": {leakSource, 50_000_000}}
	for _, name := range append(progs.Names(), "smc") {
		p, err := progs.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		programs[name] = program{p.Source, p.Fuel}
	}
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]string{}
	for _, name := range names {
		p := programs[name]
		a, b := traceDigest(t, name, p.src, p.fuel), traceDigest(t, name, p.src, p.fuel)
		if a != b {
			t.Errorf("%s: two traces of the same program differ: %s vs %s", name, a, b)
		}
		got[name] = a
	}

	if os.Getenv("EDB_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(digestGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", digestGoldenPath)
		return
	}

	data, err := os.ReadFile(digestGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (EDB_REGEN_GOLDEN=1 to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded in the golden but not traced", name)
		}
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no golden digest recorded (EDB_REGEN_GOLDEN=1 to add)", name)
		case got[name] != w:
			t.Errorf("%s: trace digest drifted from golden:\n  got  %s\n  want %s\n"+
				"If this change is intended, regenerate with EDB_REGEN_GOLDEN=1 and review the diff.",
				name, got[name], w)
		}
	}
}
