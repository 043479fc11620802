package serve

import (
	"bytes"
	"strings"
	"testing"

	"edb/internal/arch"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// testTrace builds a small trace with one global and one heap object,
// enough to discover a handful of sessions.
func testTrace() *trace.Trace {
	tab := objects.NewTable()
	g := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g", SizeBytes: 4})
	h := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#1", SizeBytes: 16,
		AllocCtx: []string{"main"}})
	tr := &trace.Trace{Program: "proto-test", Objects: tab, BaseCycles: 40_000_000, Instret: 1000}
	ev := func(k trace.EventKind, obj objects.ID, ba, ea, pc arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: k, Obj: obj, BA: ba, EA: ea, PC: pc})
	}
	ev(trace.EvInstall, g, 0x400000, 0x400004, 0)
	ev(trace.EvInstall, h, 0x1000000, 0x1000010, 0)
	ev(trace.EvWrite, 0, 0x400000, 0x400004, 0x1000)
	ev(trace.EvWrite, 0, 0x1000008, 0x100000c, 0x1004)
	ev(trace.EvRemove, h, 0x1000000, 0x1000010, 0)
	ev(trace.EvRemove, g, 0x400000, 0x400004, 0)
	return tr
}

func encodeTestTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRequestRoundTrip(t *testing.T) {
	tr := testTrace()
	tb := encodeTestTrace(t, tr)
	hdr := &RequestHeader{Program: "proto-test", Sessions: SessionSpec{Types: []string{"OneGlobalStatic"}}}
	var env bytes.Buffer
	if err := EncodeRequest(&env, hdr, tb); err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(env.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.HashOnly() {
		t.Fatal("full submission decoded as hash-only")
	}
	if req.Trace.Program != "proto-test" || len(req.Trace.Events) != len(tr.Events) {
		t.Errorf("trace did not round-trip: program=%q events=%d", req.Trace.Program, len(req.Trace.Events))
	}
	if !validHexHash(req.Hash) {
		t.Errorf("computed hash %q is not a hex SHA-256", req.Hash)
	}

	// Declaring the correct hash passes; a wrong one is rejected.
	hdr.ContentSHA256 = req.Hash
	env.Reset()
	if err := EncodeRequest(&env, hdr, tb); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(env.Bytes(), 0); err != nil {
		t.Errorf("correct declared hash rejected: %v", err)
	}
	hdr.ContentSHA256 = strings.Repeat("0", 64)
	env.Reset()
	if err := EncodeRequest(&env, hdr, tb); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(env.Bytes(), 0); err == nil || !IsBadRequest(err) {
		t.Errorf("wrong declared hash: err = %v, want bad request", err)
	}
}

func TestRequestHashCoversSpec(t *testing.T) {
	tr := testTrace()
	tb := encodeTestTrace(t, tr)
	hash := func(hdr *RequestHeader) string {
		var env bytes.Buffer
		if err := EncodeRequest(&env, hdr, tb); err != nil {
			t.Fatal(err)
		}
		req, err := DecodeRequest(env.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return req.Hash
	}
	all := hash(&RequestHeader{})
	// The address of a default submission is stable across releases:
	// stored artifacts and declared hashes stay reachable.
	if want := "3e66b6f56a67be17e30b760baf3e387af7497f88b8e6cfa05783a23b2829b35d"; all != want {
		t.Errorf("default submission hashes to %s, want %s", all, want)
	}
	// Shards is accepted and ignored, so it must not split the store.
	if sharded := hash(&RequestHeader{Shards: 3}); sharded != all {
		t.Errorf("shards=3 hashes to %s, want the default %s", sharded, all)
	}
	subset := hash(&RequestHeader{Sessions: SessionSpec{Types: []string{"OneHeap"}}})
	if all == subset {
		t.Error("different session specs hash identically")
	}
	// Field order and duplicates don't change the canonical hash.
	a := hash(&RequestHeader{Sessions: SessionSpec{Types: []string{"OneHeap", "OneGlobalStatic"}}})
	b := hash(&RequestHeader{Sessions: SessionSpec{Types: []string{"OneGlobalStatic", "OneHeap", "OneHeap"}}})
	if a != b {
		t.Error("spec canonicalization is order/duplicate sensitive")
	}
}

func TestHashOnlyRequest(t *testing.T) {
	hdr := &RequestHeader{ContentSHA256: strings.Repeat("ab", 32)}
	var env bytes.Buffer
	if err := EncodeRequest(&env, hdr, nil); err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(env.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !req.HashOnly() || req.Hash != hdr.ContentSHA256 {
		t.Errorf("hash-only decode: hashOnly=%v hash=%q", req.HashOnly(), req.Hash)
	}
	// Empty trace frame without a declared hash is malformed.
	var bad bytes.Buffer
	if err := EncodeRequest(&bad, &RequestHeader{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(bad.Bytes(), 0); err == nil || !IsBadRequest(err) {
		t.Errorf("empty trace without hash: err = %v, want bad request", err)
	}
}

// TestDecodeRejectsTampering: every single-byte flip in the envelope
// either still decodes to the identical submission or fails with a
// typed bad-request error — never a panic, never silent corruption.
func TestDecodeRejectsTampering(t *testing.T) {
	tr := testTrace()
	tb := encodeTestTrace(t, tr)
	var env bytes.Buffer
	if err := EncodeRequest(&env, &RequestHeader{}, tb); err != nil {
		t.Fatal(err)
	}
	orig := env.Bytes()
	want, err := DecodeRequest(orig, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(orig); i++ {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		req, err := DecodeRequest(mut, 0)
		if err != nil {
			if !IsBadRequest(err) {
				t.Fatalf("flip at byte %d: untyped error %v", i, err)
			}
			continue
		}
		if req.Hash != want.Hash {
			t.Fatalf("flip at byte %d silently changed the submission", i)
		}
	}
}

func TestDecodeTruncation(t *testing.T) {
	tr := testTrace()
	tb := encodeTestTrace(t, tr)
	var env bytes.Buffer
	if err := EncodeRequest(&env, &RequestHeader{}, tb); err != nil {
		t.Fatal(err)
	}
	orig := env.Bytes()
	for n := 0; n < len(orig); n++ {
		if _, err := DecodeRequest(orig[:n], 0); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if !IsBadRequest(err) {
			t.Fatalf("truncation to %d: untyped error %v", n, err)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeRequest(append(append([]byte(nil), orig...), 0), 0); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestDecodeSizeLimit(t *testing.T) {
	tr := testTrace()
	tb := encodeTestTrace(t, tr)
	var env bytes.Buffer
	if err := EncodeRequest(&env, &RequestHeader{}, tb); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(env.Bytes(), 16); err == nil || !IsBadRequest(err) {
		t.Errorf("oversized request: err = %v, want bad request", err)
	}
}

func TestSessionSpecSelect(t *testing.T) {
	set := sessions.Discover(testTrace())
	if len(set.Sessions) < 3 {
		t.Fatalf("test trace discovered only %d sessions", len(set.Sessions))
	}
	spec := SessionSpec{Types: []string{"OneHeap"}}
	chosen, orig, err := spec.Select(set)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range chosen {
		if s.Type.String() != "OneHeap" {
			t.Errorf("chose %s, want OneHeap", s.Type)
		}
		// Original indices must point back into the full set.
		if set.Sessions[orig[i]].Type != s.Type || set.Sessions[orig[i]].Name != s.Name {
			t.Errorf("original index %d does not match chosen session", orig[i])
		}
	}
	if _, _, err := (&SessionSpec{Types: []string{"NoSuchType"}}).Select(set); err == nil {
		t.Error("unknown session type accepted")
	}
	if _, _, err := (&SessionSpec{Indices: []int{999}}).Select(set); err == nil {
		t.Error("out-of-range index accepted")
	}
	if got, _, err := (&SessionSpec{MaxSessions: 2}).Select(set); err != nil || len(got) != 2 {
		t.Errorf("MaxSessions: got %d sessions, err %v", len(got), err)
	}
}
