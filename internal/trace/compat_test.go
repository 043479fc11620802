package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edb/internal/arch"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/trace"
)

// Golden cross-version compatibility: tiny committed fixture files in
// every on-disk format (v1 legacy, v2 framed rows, v3 columnar blocks)
// must decode to identical events AND replay to the identical golden
// SHA-256 — the v3 fixture both materialised through Read and replayed
// as a stream. Any codec drift that survives the round-trip
// tests (a re-encoded fixture would hide it) still fails here, because
// the bytes are frozen in git.
//
// Regenerate (only with an intended, reviewed format change):
//
//	EDB_REGEN_GOLDEN=1 go test -run TestCompatFixtures ./internal/trace/
const compatDir = "testdata/compat"

// compatTrace builds the fixture trace deterministically: a handful of
// globals and heap objects across several pages, interleaved writes
// (member and stray), and full teardown — 26 events, so the v3 fixture
// at 4 events/block spans 7 blocks with a partial tail.
func compatTrace() *trace.Trace {
	tab := objects.NewTable()
	ids := []objects.ID{
		tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g0", SizeBytes: 8}),
		tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g1", SizeBytes: 8}),
		tab.Add(objects.Object{Kind: objects.KindHeap, Name: "h0", SizeBytes: 16,
			AllocCtx: []string{"main", "build"}}),
		tab.Add(objects.Object{Kind: objects.KindHeap, Name: "h1", SizeBytes: 32,
			AllocCtx: []string{"main", "grow"}}),
	}
	tr := &trace.Trace{Program: "compat", BaseCycles: 1000, Instret: 2000, Objects: tab}
	ev := func(k trace.EventKind, obj int, ba, ea, pc arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: k, Obj: ids[obj], BA: ba, EA: ea, PC: pc})
	}
	w := func(ba arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.EvWrite, BA: ba, EA: ba + 4, PC: 0x10040})
	}
	g0 := arch.Addr(arch.GlobalBase)
	g1 := arch.Addr(arch.GlobalBase + 4096 - 4) // straddles a 4 KiB boundary
	h0 := arch.Addr(arch.HeapBase)
	h1 := arch.Addr(arch.HeapBase + 3*4096)
	ev(trace.EvInstall, 0, g0, g0+8, 0)
	ev(trace.EvInstall, 1, g1, g1+8, 0)
	w(g0)
	w(g0 + 4)
	ev(trace.EvInstall, 2, h0, h0+16, 0)
	w(h0 + 8)
	w(g1 + 4) // second page of the straddler
	w(arch.GlobalBase + 2*4096)
	ev(trace.EvInstall, 3, h1, h1+32, 0)
	w(h1)
	w(h1 + 28)
	ev(trace.EvRemove, 2, h0, h0+16, 0)
	w(h0) // write after remove: miss
	w(g1)
	w(arch.HeapBase + 8*4096) // stray page
	ev(trace.EvInstall, 2, h0, h0+16, 0)
	w(h0 + 4)
	w(g0)
	ev(trace.EvRemove, 3, h1, h1+32, 0)
	w(h1 + 4)
	w(g1 + 4)
	ev(trace.EvRemove, 2, h0, h0+16, 0)
	w(h0 + 12)
	w(g0 + 4)
	ev(trace.EvRemove, 1, g1, g1+8, 0)
	ev(trace.EvRemove, 0, g0, g0+8, 0)
	return tr
}

// replayHash returns the canonical SHA-256 of a replay output — the
// same serialisation internal/sim's golden suite pins: session count,
// total writes, then each session's counting variables, little-endian.
func replayHash(t *testing.T, out *sim.Output) string {
	t.Helper()
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

// v1Bytes re-frames a v2 encoding as legacy v1 (no length, no CRC —
// the body streamed directly after the version varint), using only the
// public writer: v2 is magic+version+uvarint(len)+crc32+payload, and
// v1 is magic+version+payload.
func v1Bytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var v2 bytes.Buffer
	if err := trace.WriteTo(&v2, tr, trace.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	b := v2.Bytes()
	i := len("EDBT") + 1 // magic + single-byte version varint
	n, w := binary.Uvarint(b[i:])
	if w <= 0 {
		t.Fatal("malformed v2 framing")
	}
	payload := b[i+w+4:]
	if uint64(len(payload)) != n {
		t.Fatalf("v2 payload length %d != declared %d", len(payload), n)
	}
	return append([]byte("EDBT\x01"), payload...)
}

func TestCompatFixtures(t *testing.T) {
	tr := compatTrace()
	regen := os.Getenv("EDB_REGEN_GOLDEN") != ""
	var v2, v3 bytes.Buffer
	if err := trace.WriteTo(&v2, tr, trace.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTo(&v3, tr, trace.WriteOptions{Version: 3, BlockEvents: 4}); err != nil {
		t.Fatal(err)
	}
	fixtures := map[string][]byte{
		"tiny.v1.trace": v1Bytes(t, tr),
		"tiny.v2.trace": v2.Bytes(),
		"tiny.v3.trace": v3.Bytes(),
	}

	set := sessions.Discover(tr)
	ref, err := sim.RunWithOptions(tr, set, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	goldenHash := replayHash(t, ref)

	if regen {
		if err := os.MkdirAll(compatDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range fixtures {
			if err := os.WriteFile(filepath.Join(compatDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := json.MarshalIndent(map[string]any{
			"replay_sha256": goldenHash,
			"events":        len(tr.Events),
			"sessions":      len(set.Sessions),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(compatDir, "golden.json"),
			append(golden, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (replay %s)", compatDir, goldenHash[:16])
	}

	var golden struct {
		ReplaySHA256 string `json:"replay_sha256"`
		Events       int    `json:"events"`
		Sessions     int    `json:"sessions"`
	}
	data, err := os.ReadFile(filepath.Join(compatDir, "golden.json"))
	if err != nil {
		t.Fatalf("reading golden (EDB_REGEN_GOLDEN=1 to create): %v", err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.Events != len(tr.Events) || golden.Sessions != len(set.Sessions) {
		t.Fatalf("fixture shape drifted: %d events / %d sessions, golden %d / %d",
			len(tr.Events), len(set.Sessions), golden.Events, golden.Sessions)
	}
	if goldenHash != golden.ReplaySHA256 {
		t.Fatalf("in-memory replay of the fixture trace drifted from golden:\n  got  %s\n  want %s",
			goldenHash, golden.ReplaySHA256)
	}

	for name, want := range fixtures {
		path := filepath.Join(compatDir, name)
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (EDB_REGEN_GOLDEN=1 to create): %v", name, err)
		}
		// The committed bytes must be exactly what today's writers emit —
		// byte drift in any version is a format break.
		if !bytes.Equal(onDisk, want) {
			t.Errorf("%s: committed fixture differs from current encoder output", name)
		}
		got, err := trace.Read(bytes.NewReader(onDisk))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Events, tr.Events) {
			t.Errorf("%s: decoded events differ from fixture trace", name)
		}
		if !reflect.DeepEqual(got.Objects.All(), tr.Objects.All()) {
			t.Errorf("%s: decoded object table differs", name)
		}
		out, err := sim.RunWithOptions(got, sessions.Discover(got), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if h := replayHash(t, out); h != golden.ReplaySHA256 {
			t.Errorf("%s: replay hash %s != golden %s", name, h, golden.ReplaySHA256)
		}
	}

	// The v3 fixture must also replay to the golden hash when *streamed*
	// with block skipping — the fast path can never drift from the
	// materialised formats.
	streamed, err := sim.RunWithOptions(nil, set, sim.Options{Source: trace.BytesSource(fixtures["tiny.v3.trace"])})
	if err != nil {
		t.Fatal(err)
	}
	if h := replayHash(t, streamed); h != golden.ReplaySHA256 {
		t.Errorf("streamed v3 replay hash %s != golden %s", h, golden.ReplaySHA256)
	}
}
