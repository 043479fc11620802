package serve

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"edb/internal/trace"
)

// envelope serialises a full submission for the decoder tests.
func envelope(t *testing.T, hdr *RequestHeader, tb []byte) []byte {
	t.Helper()
	var env bytes.Buffer
	if err := EncodeRequest(&env, hdr, tb); err != nil {
		t.Fatal(err)
	}
	return env.Bytes()
}

// longVersionV2 re-spells a v2 trace's one-byte version as the
// two-byte uvarint 0x82 0x00. trace.Read accepts it, so both entry
// points must, and both must treat it as v2.
func longVersionV2(tb []byte) []byte {
	return append(append(append([]byte(nil), tb[:4]...), 0x82, 0x00), tb[5:]...)
}

// TestDecodeRequestStreamParity: the incremental decoder accepts
// exactly what the buffered decoder accepts and produces the same
// content hash; v3 payloads come back spooled, legacy v2 payloads
// materialised.
func TestDecodeRequestStreamParity(t *testing.T) {
	tr := testTrace()
	hdr := &RequestHeader{Program: "proto-test", Sessions: SessionSpec{MaxSessions: 3}, Shards: 2}

	var v3 bytes.Buffer
	if err := trace.WriteTo(&v3, tr, trace.WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		t.Fatal(err)
	}
	for name, tb := range map[string][]byte{
		"v2":              encodeTestTrace(t, tr),
		"v3":              v3.Bytes(),
		"v2-long-version": longVersionV2(encodeTestTrace(t, tr)),
	} {
		env := envelope(t, hdr, tb)
		want, err := DecodeRequest(env, 0)
		if err != nil {
			t.Fatalf("%s: buffered decode: %v", name, err)
		}
		spoolDir := t.TempDir()
		got, err := DecodeRequestStream(bytes.NewReader(env), 0, spoolDir)
		if err != nil {
			t.Fatalf("%s: streamed decode: %v", name, err)
		}
		if got.Hash != want.Hash {
			t.Errorf("%s: hash %s != buffered %s", name, got.Hash, want.Hash)
		}
		if !reflect.DeepEqual(got.Header, want.Header) {
			t.Errorf("%s: header mismatch: %+v vs %+v", name, got.Header, want.Header)
		}
		switch name {
		case "v2", "v2-long-version":
			if got.Streamed != nil || got.Trace == nil || len(got.Trace.Events) != len(tr.Events) {
				t.Fatalf("v2 payload not materialised: %+v", got)
			}
		case "v3":
			if got.Trace != nil || got.Streamed == nil {
				t.Fatalf("v3 payload not spooled: %+v", got)
			}
			st := got.Streamed
			if st.Program != tr.Program || st.NumEvents != uint64(len(tr.Events)) || st.Objects == nil {
				t.Fatalf("spooled header wrong: %+v", st)
			}
			s, err := st.Source.Open()
			if err != nil {
				t.Fatal(err)
			}
			var events []trace.Event
			for s.Next() {
				blk, err := s.DecodeIR()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.DecodeWrites(); err != nil {
					t.Fatal(err)
				}
				events = blk.AppendEvents(events)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if len(events) != len(tr.Events) {
				t.Fatalf("spool decoded %d events, want %d", len(events), len(tr.Events))
			}
		}
		got.Cleanup()
		got.Cleanup() // idempotent
		if ents, _ := os.ReadDir(spoolDir); len(ents) != 0 {
			t.Fatalf("%s: %d spool files left after Cleanup", name, len(ents))
		}
	}

	// Hash-only: no trace frame, no spool.
	ho := *hdr
	ho.Program = ""
	ho.ContentSHA256 = HashRequest(&ho, nil)
	spoolDir := t.TempDir()
	req, err := DecodeRequestStream(bytes.NewReader(envelope(t, &ho, nil)), 0, spoolDir)
	if err != nil {
		t.Fatal(err)
	}
	if !req.HashOnly() || req.Hash != ho.ContentSHA256 {
		t.Fatalf("hash-only: %+v", req)
	}
	if ents, _ := os.ReadDir(spoolDir); len(ents) != 0 {
		t.Fatal("hash-only submission left a spool file")
	}
}

// TestDecodeRequestStreamRejects: every malformed envelope the
// buffered decoder rejects is rejected by the incremental decoder too,
// as a typed bad-request at the same byte offset, and no spool file
// survives a failure.
func TestDecodeRequestStreamRejects(t *testing.T) {
	tr := testTrace()
	var v3 bytes.Buffer
	if err := trace.WriteTo(&v3, tr, trace.WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		t.Fatal(err)
	}
	hdr := &RequestHeader{Program: "proto-test"}
	good := envelope(t, hdr, v3.Bytes())

	mutate := func(name string, f func([]byte) []byte) {
		env := f(append([]byte(nil), good...))
		_, berr := DecodeRequest(env, 0)
		spoolDir := t.TempDir()
		_, serr := DecodeRequestStream(bytes.NewReader(env), 0, spoolDir)
		if berr == nil || serr == nil {
			t.Fatalf("%s: buffered err=%v, streamed err=%v", name, berr, serr)
		}
		if !IsBadRequest(serr) {
			t.Errorf("%s: streamed error not a bad request: %v", name, serr)
		}
		var bp, sp *protoErr
		if errors.As(berr, &bp) && errors.As(serr, &sp) && bp.off != sp.off {
			t.Errorf("%s: offset %d (streamed) != %d (buffered)\n  buffered: %v\n  streamed: %v",
				name, sp.off, bp.off, berr, serr)
		}
		if ents, _ := os.ReadDir(spoolDir); len(ents) != 0 {
			t.Errorf("%s: %d spool files left after decode failure", name, len(ents))
		}
	}

	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 9; return b })
	mutate("header crc flip", func(b []byte) []byte { b[10] ^= 0x01; return b })
	mutate("trace payload flip", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b })
	mutate("trailing byte", func(b []byte) []byte { return append(b, 0xAA) })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-7] })
	mutate("empty trace no hash", func(b []byte) []byte {
		return envelope(t, &RequestHeader{}, nil)
	})
	mutate("declared hash mismatch", func(b []byte) []byte {
		bad := *hdr
		bad.ContentSHA256 = validButWrongHash
		return envelope(t, &bad, v3.Bytes())
	})
	mutate("negative shards", func(b []byte) []byte {
		bad := *hdr
		bad.Shards = -1
		return envelope(t, &bad, v3.Bytes())
	})
	mutate("trace length past int64", func(b []byte) []byte {
		return append(buildEnvelope(1, []byte(`{}`)), rawFrame(1<<63, 0, nil)...)
	})
}

const validButWrongHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
