package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
