package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"edb/internal/fault"
	"edb/internal/objects"
)

// writeV1 encodes a trace in the legacy version-1 format (no payload
// length, no checksum, body streamed directly after the version), as
// the pre-v2 Write did — the back-compat fixture generator.
func writeV1(t *Trace) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putUvarint(versionV1)
	putString(t.Program)
	putUvarint(t.BaseCycles)
	putUvarint(t.Instret)
	objs := t.Objects.All()
	putUvarint(uint64(len(objs)))
	for _, o := range objs {
		buf.WriteByte(byte(o.Kind))
		putString(o.Func)
		putString(o.Name)
		putUvarint(uint64(o.SizeBytes))
		putUvarint(uint64(len(o.AllocCtx)))
		for _, f := range o.AllocCtx {
			putString(f)
		}
	}
	putUvarint(uint64(len(t.Events)))
	for _, e := range t.Events {
		buf.WriteByte(byte(e.Kind))
		if e.Kind != EvWrite {
			putUvarint(uint64(e.Obj))
		}
		putUvarint(uint64(e.BA))
		putUvarint(uint64(e.EA - e.BA))
		if e.Kind == EvWrite {
			putUvarint(uint64(e.PC))
		}
	}
	return buf.Bytes()
}

// TestReadV1Legacy: version-1 files written by the previous format are
// still read, field for field.
func TestReadV1Legacy(t *testing.T) {
	tr := sampleTrace()
	got, err := Read(bytes.NewReader(writeV1(tr)))
	if err != nil {
		t.Fatalf("reading v1 file: %v", err)
	}
	if got.Program != tr.Program || got.BaseCycles != tr.BaseCycles || got.Instret != tr.Instret {
		t.Errorf("v1 header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Error("v1 events mismatch")
	}
	if got.Objects.Len() != tr.Objects.Len() {
		t.Error("v1 object count mismatch")
	}
}

// TestWriteEmitsV2: the writer emits the checksummed version-2 layout
// (magic, version, payload length, CRC32, payload).
func TestWriteEmitsV2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if string(raw[:4]) != magic {
		t.Fatalf("bad magic %q", raw[:4])
	}
	br := bytes.NewReader(raw[4:])
	v, err := binary.ReadUvarint(br)
	if err != nil || v != version {
		t.Fatalf("version = %d (%v), want %d", v, err, version)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	var crcBuf [4]byte
	if _, err := br.Read(crcBuf[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, plen)
	if _, err := br.Read(payload); err != nil {
		t.Fatal(err)
	}
	if br.Len() != 0 {
		t.Fatalf("%d trailing file bytes", br.Len())
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(crcBuf[:]) {
		t.Fatal("stored checksum does not cover payload")
	}
}

// TestReadRejectsEveryBitFlip: flipping any single bit of a version-2
// file must produce an error (never a crash), and flips inside the
// payload must be caught by the checksum.
func TestReadRejectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Locate the payload start: magic + version uvarint + length uvarint
	// + 4-byte CRC.
	br := bytes.NewReader(full[4:])
	binary.ReadUvarint(br) // version
	binary.ReadUvarint(br) // payload length
	payloadStart := 4 + (int(br.Size()) - br.Len()) + 4

	flipped := 0
	for byteIdx := 0; byteIdx < len(full); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[byteIdx] ^= 1 << bit
			got, err := Read(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly: %+v", byteIdx, bit, got)
			}
			if byteIdx >= payloadStart && !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("payload flip at byte %d bit %d not caught by checksum: %v",
					byteIdx, bit, err)
			}
			flipped++
		}
	}
	if flipped != 8*len(full) {
		t.Fatalf("covered %d flips, want %d", flipped, 8*len(full))
	}
}

// v2File wraps a hand-built payload in a valid version-2 header with a
// correct checksum, so decode-level (post-checksum) defences are
// reachable.
func v2File(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], version)
	buf.Write(scratch[:n])
	n = binary.PutUvarint(scratch[:], uint64(len(payload)))
	buf.Write(scratch[:n])
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	buf.Write(crcBuf[:])
	buf.Write(payload)
	return buf.Bytes()
}

// payloadWith builds a minimal trace body and lets the caller inflate
// one of the counts.
func payloadWith(nObjs, nEvents uint64) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putUvarint(1)
	buf.WriteString("x") // program
	putUvarint(0)        // base cycles
	putUvarint(0)        // instret
	putUvarint(nObjs)
	putUvarint(nEvents)
	return buf.Bytes()
}

// TestReadRejectsInflatedCounts: counts the payload cannot possibly
// back are rejected before allocation, with byte-offset diagnostics.
func TestReadRejectsInflatedCounts(t *testing.T) {
	cases := []struct {
		name string
		file []byte
		want string
	}{
		{"events", v2File(payloadWith(0, 1<<40)), "event count"},
		{"objects", v2File(payloadWith(1<<40, 0)), "object count"},
	}
	for _, c := range cases {
		_, err := Read(bytes.NewReader(c.file))
		if err == nil {
			t.Fatalf("%s: inflated count decoded cleanly", c.name)
		}
		msg := err.Error()
		if !strings.Contains(msg, c.want) || !strings.Contains(msg, "byte offset") {
			t.Errorf("%s: diagnostic %q lacks count name or byte offset", c.name, msg)
		}
	}
}

// TestReadRejectsTruncatedV2: cutting a version-2 file anywhere yields
// a typed, offset-bearing error; cuts inside the payload name the
// shortfall.
func TestReadRejectsTruncatedV2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := Read(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Errorf("truncation at %d: diagnostic %q lacks byte offset", cut, err)
		}
	}
	// A payload cut specifically reports the shortfall.
	_, err := Read(bytes.NewReader(full[:len(full)-3]))
	if err == nil || !strings.Contains(err.Error(), "truncated payload") {
		t.Errorf("payload truncation diagnostic = %v", err)
	}
}

// TestReadRejectsTrailingPayloadBytes: payload bytes beyond the trace
// body are corruption, even when the checksum matches.
func TestReadRejectsTrailingPayloadBytes(t *testing.T) {
	payload := append(payloadWith(0, 0), 0xff)
	_, err := Read(bytes.NewReader(v2File(payload)))
	if err == nil || !strings.Contains(err.Error(), "trailing payload") {
		t.Errorf("trailing bytes diagnostic = %v", err)
	}
}

// TestReadRejectsFutureVersion: version 4 is an error naming the
// version, not a misparse.
func TestReadRejectsFutureVersion(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte(magic + "\x04")))
	if err == nil || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Errorf("future version diagnostic = %v", err)
	}
}

// TestReadRejectsHugeObjectFields: per-object caps (size, context
// frames) hold even when the count fields themselves are plausible.
func TestReadRejectsHugeObjectFields(t *testing.T) {
	build := func(size, nCtx uint64) []byte {
		var buf bytes.Buffer
		var scratch [binary.MaxVarintLen64]byte
		putUvarint := func(v uint64) {
			n := binary.PutUvarint(scratch[:], v)
			buf.Write(scratch[:n])
		}
		putUvarint(1)
		buf.WriteString("x")
		putUvarint(0)
		putUvarint(0)
		putUvarint(1)    // one object
		buf.WriteByte(0) // kind
		putUvarint(0)    // func ""
		putUvarint(0)    // name ""
		putUvarint(size) // size
		putUvarint(nCtx) // alloc-context count
		// Pad so a large-but-capped nCtx passes the remaining-bytes
		// check and reaches the dedicated cap.
		buf.Write(make([]byte, 64*1024))
		return buf.Bytes()
	}
	if _, err := Read(bytes.NewReader(v2File(build(1<<40, 0)))); err == nil ||
		!strings.Contains(err.Error(), "size") {
		t.Errorf("huge object size diagnostic = %v", err)
	}
	if _, err := Read(bytes.NewReader(v2File(build(4, 1<<13)))); err == nil ||
		!strings.Contains(err.Error(), "alloc-context") {
		t.Errorf("huge alloc-context diagnostic = %v", err)
	}
}

// TestReadRejectsBadObjectKind: object kinds beyond KindHeap are
// rejected with the offending offset.
func TestReadRejectsBadObjectKind(t *testing.T) {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putUvarint(1)
	buf.WriteString("x")
	putUvarint(0)
	putUvarint(0)
	putUvarint(1)                             // one object
	buf.WriteByte(byte(objects.KindHeap) + 1) // invalid kind
	buf.Write(make([]byte, 16))
	_, err := Read(bytes.NewReader(v2File(buf.Bytes())))
	if err == nil || !strings.Contains(err.Error(), "bad kind") {
		t.Errorf("bad kind diagnostic = %v", err)
	}
}

// TestWriteFaultInjection: the trace.Write error site returns a typed
// injected fault, and nothing is recorded as written cleanly.
func TestWriteFaultInjection(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteTraceWrite, Key: "demo", Kind: fault.Permanent, Times: 1}))
	defer fault.Deactivate()
	var buf bytes.Buffer
	err := WriteTo(&buf, sampleTrace(), WriteOptions{})
	if err == nil {
		t.Fatal("armed write site did not fault")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Site != fault.SiteTraceWrite {
		t.Fatalf("untyped write fault: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("faulted write still emitted %d bytes", buf.Len())
	}
	// The window has passed: the retry succeeds and round-trips.
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{}); err != nil {
		t.Fatalf("retry after transient window: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("retried write does not round-trip: %v", err)
	}
}

// TestCorruptionInjectionCaughtByChecksum: a seeded post-checksum bit
// flip at the corruption site must be detected by Read — the
// write-side half of the chaos contract for trace I/O.
func TestCorruptionInjectionCaughtByChecksum(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		fault.Activate(fault.NewPlan(seed, fault.Rule{
			Site: fault.SiteTraceCorrupt, Kind: fault.Corrupt, Times: 1}))
		var buf bytes.Buffer
		if err := WriteTo(&buf, sampleTrace(), WriteOptions{}); err != nil {
			fault.Deactivate()
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		fault.Deactivate()
		_, err := Read(bytes.NewReader(buf.Bytes()))
		if err == nil {
			t.Fatalf("seed %d: corrupted trace decoded cleanly", seed)
		}
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("seed %d: corruption not caught by checksum: %v", seed, err)
		}
	}
}

// TestReadFaultInjection: the trace.Read error site returns a typed
// injected fault before any bytes are consumed.
func TestReadFaultInjection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteTraceRead, Kind: fault.Transient, Times: 1}))
	defer fault.Deactivate()
	_, err := Read(bytes.NewReader(buf.Bytes()))
	if !fault.IsTransient(err) {
		t.Fatalf("armed read site returned %v", err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("read after transient window: %v", err)
	}
}
