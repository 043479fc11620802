package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"edb/internal/trace"
)

// buildEnvelope assembles an EDBS envelope from raw frame payloads,
// letting seeds forge lengths and checksums that EncodeRequest would
// never produce.
func buildEnvelope(version uint64, frames ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(protoMagic)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], version)])
	for _, f := range frames {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(f)))])
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(f))
		buf.Write(crc[:])
		buf.Write(f)
	}
	return buf.Bytes()
}

// rawFrame writes an explicit (length, crc) pair, for forging
// mismatches between the declared and actual payload.
func rawFrame(declaredLen uint64, crc uint32, payload []byte) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], declaredLen)])
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], crc)
	buf.Write(c[:])
	buf.Write(payload)
	return buf.Bytes()
}

// FuzzServeRequest hammers DecodeRequest the way FuzzTraceRead
// hammers the trace decoders: arbitrary bytes must either decode into
// a request that re-encodes and re-decodes to the same value, or fail
// with a typed bad-request error — never crash, hang, or
// over-allocate. The seed corpus combines in-memory seeds (a valid
// envelope, truncations, forged frame lengths and checksums, absurd
// uvarints, header/trace frame swaps, hash-only forms) with the
// checked-in testdata corpus derived from real workload traces
// (regenerate with EDB_REGEN_FUZZ_CORPUS=1, see corpusgen_test.go).
func FuzzServeRequest(f *testing.F) {
	var traceBuf bytes.Buffer
	if err := trace.WriteTo(&traceBuf, testTrace(), trace.WriteOptions{}); err != nil {
		f.Fatal(err)
	}
	tb := traceBuf.Bytes()
	hdr := &RequestHeader{Program: "proto-test", Sessions: SessionSpec{MaxSessions: 3}}
	var valid bytes.Buffer
	if err := EncodeRequest(&valid, hdr, tb); err != nil {
		f.Fatal(err)
	}
	var hashOnly bytes.Buffer
	if err := EncodeRequest(&hashOnly, &RequestHeader{ContentSHA256: HashRequest(hdr, tb)}, nil); err != nil {
		f.Fatal(err)
	}
	jhdr := []byte(`{"program":"proto-test"}`)
	seeds := [][]byte{
		valid.Bytes(),
		hashOnly.Bytes(),
		valid.Bytes()[:len(valid.Bytes())/2],
		[]byte(protoMagic),
		[]byte(protoMagic + "\x01"),
		// Version 0 and an absurd uvarint version.
		buildEnvelope(0, jhdr, tb),
		[]byte(protoMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
		// Frames in the wrong order: trace bytes where JSON belongs.
		buildEnvelope(1, tb, jhdr),
		// Header frame at exactly and just past its cap.
		buildEnvelope(1, bytes.Repeat([]byte{' '}, maxHeaderBytes+1), tb),
		// Forged lengths: declared far larger than the payload, and a
		// length that overflows the remaining bytes.
		append(buildEnvelope(1), rawFrame(1<<40, 0, nil)...),
		append(buildEnvelope(1, jhdr), rawFrame(uint64(len(tb)+9000), crc32.ChecksumIEEE(tb), tb)...),
		// Right length, wrong checksum.
		append(buildEnvelope(1, jhdr), rawFrame(uint64(len(tb)), 0xdeadbeef, tb)...),
		// Valid envelope with trailing garbage.
		append(append([]byte{}, valid.Bytes()...), 0x00),
		// Empty trace frame without a declared hash; malformed hash.
		buildEnvelope(1, jhdr, nil),
		buildEnvelope(1, []byte(`{"content_sha256":"xyz"}`), nil),
		// Unknown header field and non-object header JSON.
		buildEnvelope(1, []byte(`{"nope":1}`), tb),
		buildEnvelope(1, []byte(`[1,2]`), tb),
		buildEnvelope(1, []byte(`{}{}`), tb),
		// Negative knobs the decoder must reject.
		buildEnvelope(1, []byte(`{"shards":-1}`), tb),
		buildEnvelope(1, []byte(`{"sessions":{"max_sessions":-5}}`), tb),
		{},
	}
	// One-byte mutants of the valid envelope reach deep branches of
	// both the framing and the embedded trace decoder.
	base := valid.Bytes()
	for i := 0; i < len(base); i += 5 {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x40
		seeds = append(seeds, mut)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data, 1<<22)
		if err != nil {
			// Rejections must carry the typed byte-offset error (or the
			// typed spec error) so the server can map them to 400.
			if !IsBadRequest(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Anything accepted must re-encode and re-decode to the same
		// request: header, hash, and trace bytes all stable.
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, &req.Header, req.TraceBytes); err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		req2, err := DecodeRequest(buf.Bytes(), 1<<22)
		if err != nil {
			t.Fatalf("re-decoding re-encoded request: %v", err)
		}
		if !reflect.DeepEqual(req2.Header, req.Header) {
			t.Fatalf("round-trip header drift: %+v vs %+v", req2.Header, req.Header)
		}
		if req2.Hash != req.Hash {
			t.Fatalf("round-trip hash drift: %s vs %s", req2.Hash, req.Hash)
		}
		if !bytes.Equal(req2.TraceBytes, req.TraceBytes) {
			t.Fatal("round-trip trace-bytes drift")
		}
		if req.HashOnly() != (req.Trace == nil) {
			t.Fatalf("HashOnly()=%v but Trace==nil is %v", req.HashOnly(), req.Trace == nil)
		}
	})
}

// FuzzServeRequestParity decodes one submission through both entry
// points. The input is a trace payload, which the harness wraps in a
// valid envelope, so the fuzzer explores what lands behind the trace
// frame: DecodeRequest and DecodeRequestStream must both accept it
// with the same hash and header, or both reject it as a typed bad
// request at the same byte offset, and no spool file may survive
// either way. The seeds include a v2 trace whose version is spelled as
// a two-byte uvarint, a divergence a short run seeded only with the
// plain encodings did not find.
func FuzzServeRequestParity(f *testing.F) {
	tr := testTrace()
	var v2, v3 bytes.Buffer
	if err := trace.WriteTo(&v2, tr, trace.WriteOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := trace.WriteTo(&v3, tr, trace.WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		f.Fatal(err)
	}
	for _, tb := range [][]byte{v2.Bytes(), v3.Bytes()} {
		for _, n := range []int{len(tb), len(tb) - 1, len(tb) / 2, 5, 4, 0} {
			f.Add(tb[:n])
		}
	}
	f.Add(longVersionV2(v2.Bytes()))
	hdr := &RequestHeader{Program: "proto-test", Sessions: SessionSpec{MaxSessions: 3}}

	f.Fuzz(func(t *testing.T, tb []byte) {
		var env bytes.Buffer
		if err := EncodeRequest(&env, hdr, tb); err != nil {
			t.Fatal(err)
		}
		mem, merr := DecodeRequest(env.Bytes(), 1<<22)
		spoolDir := t.TempDir()
		str, serr := DecodeRequestStream(bytes.NewReader(env.Bytes()), 1<<22, spoolDir)
		if serr == nil {
			str.Cleanup()
		}
		if ents, _ := os.ReadDir(spoolDir); len(ents) != 0 {
			t.Fatalf("%d spool files survive (streamed err=%v)", len(ents), serr)
		}
		if (merr == nil) != (serr == nil) {
			t.Fatalf("entry points disagree: in memory err=%v, streamed err=%v", merr, serr)
		}
		if merr == nil {
			if mem.Hash != str.Hash || !reflect.DeepEqual(mem.Header, str.Header) {
				t.Fatalf("accepted differently: hash %s vs %s, header %+v vs %+v", mem.Hash, str.Hash, mem.Header, str.Header)
			}
			return
		}
		var mp, sp *protoErr
		if !errors.As(merr, &mp) || !errors.As(serr, &sp) {
			t.Fatalf("untyped rejection: in memory %v, streamed %v", merr, serr)
		}
		if mp.off != sp.off {
			t.Fatalf("rejected at byte %d in memory, %d streamed:\n  %v\n  %v", mp.off, sp.off, merr, serr)
		}
	})
}
