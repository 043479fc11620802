package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/progs"
	"edb/internal/sessions"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// Golden end-to-end pinning: a per-workload SHA-256 over the
// canonically serialized PerSession counting vectors of every benchmark
// at scale 1. Any silent replay drift — an engine rewrite, a membership
// reorder, a counting bug — changes a hash and fails loudly. The hashes
// were generated against the pre-flat-memory map-based engine, so they
// also pin the flat-memory rewrite to bit-identical output.
//
// Regenerate (only when an output change is intended and reviewed):
//
//	EDB_REGEN_GOLDEN=1 go test -run TestGoldenReplayPinning ./internal/sim/
const goldenPath = "testdata/golden_replay.json"

// workloadTrace compiles and traces one benchmark at scale 1, cached
// per test binary: trace generation dominates the golden suite's cost
// and the trace is immutable once built.
var (
	workloadMu     sync.Mutex
	workloadTraces = map[string]*trace.Trace{}
)

func workloadTrace(t testing.TB, name string) *trace.Trace {
	t.Helper()
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if tr := workloadTraces[name]; tr != nil {
		return tr
	}
	p, err := progs.ByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := minic.CompileToImage(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracer.New(m, p.Name).Run(p.Fuel)
	if err != nil {
		t.Fatal(err)
	}
	workloadTraces[name] = tr
	return tr
}

// canonicalHash serialises the phase-2 output canonically — session
// count, total writes, then each session's ten counting variables in
// declaration order, all little-endian uint64 — and returns the
// SHA-256 hex digest. The encoding is independent of engine and host,
// so one hash pins the result bit-exactly.
func canonicalHash(out *Output) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(out.PerSession)))
	put(out.TotalWrites)
	for i := range out.PerSession {
		c := &out.PerSession[i]
		put(c.Installs)
		put(c.Removes)
		put(c.Hits)
		put(c.Misses)
		for psi := 0; psi < 2; psi++ {
			put(c.VM[psi].Protects)
			put(c.VM[psi].Unprotects)
			put(c.VM[psi].ActivePageMiss)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenReplayPinning(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pinning traces all five workloads; skipped in -short")
	}
	regen := os.Getenv("EDB_REGEN_GOLDEN") != ""
	golden := map[string]string{}
	if !regen {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden file (EDB_REGEN_GOLDEN=1 to create): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]string{}
	for _, name := range progs.Names() {
		tr := workloadTrace(t, name)
		set := sessions.Discover(tr)
		seq, err := sequential(tr, set)
		if err != nil {
			t.Fatal(err)
		}
		hash := canonicalHash(seq)
		got[name] = hash
		if !regen {
			want, ok := golden[name]
			if !ok {
				t.Errorf("%s: no golden hash recorded (EDB_REGEN_GOLDEN=1 to add)", name)
				continue
			}
			if hash != want {
				t.Errorf("%s: replay output drifted from golden:\n  got  %s\n  want %s\n"+
					"If this change is intended, regenerate with EDB_REGEN_GOLDEN=1 and review the diff.",
					name, hash, want)
			}
		}
	}

	if regen {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		// Stable, human-diffable encoding.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d workload hashes", goldenPath, len(names))
	}
}
