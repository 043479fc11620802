package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"edb/internal/fault"
)

// v3 corruption matrix: every frame region of the columnar format —
// magic, version, frame lengths, frame CRCs, header payload, summary
// payloads, column payloads — must turn into a typed byte-offset error
// on any single-bit flip, through both the materialising reader and a
// full streaming pass, and the decoder must reject CRC-valid frames
// whose *semantics* are corrupt (summaries that disown their own
// writes, bitmaps that contradict counts, overflowing varints).

// v3Sample serialises sampleTrace at 2 events/block: 3 blocks, so the
// file exercises the header frame plus three summary/column frame
// pairs (7 frames total).
func v3Sample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamAll runs a complete streaming pass — open, every block's IR and
// write columns, final totals check — and returns the first error.
func streamAll(data []byte) error {
	s, err := OpenStream(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for s.Next() {
		if _, err := s.DecodeIR(); err != nil {
			return err
		}
		if err := s.DecodeWrites(); err != nil {
			return err
		}
	}
	return s.Err()
}

// framePayloadRanges walks the v3 framing and returns the byte ranges
// occupied by frame payloads (the CRC-protected regions).
func framePayloadRanges(t *testing.T, data []byte) [][2]int {
	t.Helper()
	var ranges [][2]int
	pos := len(magic) + 1 // single-byte version varint
	for pos < len(data) {
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatalf("bad frame length at %d", pos)
		}
		start := pos + n + 4
		ranges = append(ranges, [2]int{start, start + int(plen)})
		pos = start + int(plen)
	}
	return ranges
}

// TestV3ReadRejectsEveryBitFlip is the exhaustive corruption matrix:
// flipping any single bit anywhere in a v3 file must produce an error
// carrying a byte offset — from Read and from the streaming reader —
// and flips inside CRC-protected payloads must be caught by the
// checksum itself.
func TestV3ReadRejectsEveryBitFlip(t *testing.T) {
	full := v3Sample(t)
	payloads := framePayloadRanges(t, full)
	inPayload := func(i int) bool {
		for _, r := range payloads {
			if i >= r[0] && i < r[1] {
				return true
			}
		}
		return false
	}
	for byteIdx := 0; byteIdx < len(full); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[byteIdx] ^= 1 << bit
			got, err := Read(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("flip at byte %d bit %d decoded cleanly via Read: %+v", byteIdx, bit, got)
			}
			if !strings.Contains(err.Error(), "byte offset") {
				t.Fatalf("flip at byte %d bit %d: diagnostic %q lacks byte offset", byteIdx, bit, err)
			}
			if inPayload(byteIdx) && !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("payload flip at byte %d bit %d not caught by checksum: %v", byteIdx, bit, err)
			}
			if byteIdx >= len(magic)+1 {
				// Flips at or after the first frame must also fail the
				// streaming pass (magic/version flips turn the file into
				// a non-v3 one, which OpenStream rejects separately).
				if err := streamAll(mut); err == nil {
					t.Fatalf("flip at byte %d bit %d streamed cleanly", byteIdx, bit)
				}
			}
		}
	}
}

// TestV3StreamRejectsEveryTruncation: cutting a v3 file anywhere fails
// the streaming pass with a byte-offset diagnostic.
func TestV3StreamRejectsEveryTruncation(t *testing.T) {
	full := v3Sample(t)
	for cut := 0; cut < len(full); cut++ {
		err := streamAll(full[:cut])
		if err == nil {
			t.Fatalf("truncation at %d streamed cleanly", cut)
		}
		if cut >= len(magic)+1 && !strings.Contains(err.Error(), "byte offset") {
			t.Errorf("truncation at %d: diagnostic %q lacks byte offset", cut, err)
		}
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded cleanly via Read", cut)
		}
	}
}

// --- CRC-valid-but-semantically-bad frames -------------------------

// v3Frame wraps a payload in valid framing (length, correct CRC32), so
// post-checksum decode defences are reachable.
func v3Frame(payload []byte) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(payload)))
	buf.Write(scratch[:n])
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	buf.Write(crcBuf[:])
	buf.Write(payload)
	return buf.Bytes()
}

// v3File assembles magic + version + the given frames.
func v3File(frames ...[]byte) []byte {
	out := []byte(magic + "\x03")
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

func putUv(buf *bytes.Buffer, v uint64) {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v)
	buf.Write(scratch[:n])
}

// v3Header builds a minimal header payload: program "x", no objects,
// and the given totals.
func v3Header(nBlocks, nEvents, nWrites uint64) []byte {
	var buf bytes.Buffer
	putUv(&buf, 1)
	buf.WriteString("x") // program
	putUv(&buf, 0)       // base cycles
	putUv(&buf, 0)       // instret
	putUv(&buf, 0)       // objects
	putUv(&buf, nBlocks)
	putUv(&buf, nEvents)
	putUv(&buf, nWrites)
	return buf.Bytes()
}

// v3Summary builds a summary payload from raw fields.
func v3Summary(nEvents, nWrites, minPage, span uint64, bloomPages ...uint32) []byte {
	var buf bytes.Buffer
	putUv(&buf, nEvents)
	putUv(&buf, nWrites)
	putUv(&buf, minPage)
	putUv(&buf, span)
	var bloom [bloomBytes]byte
	for _, pn := range bloomPages {
		b := pageBloomBit(pn)
		bloom[b>>3] |= 1 << (b & 7)
	}
	buf.Write(bloom[:])
	return buf.Bytes()
}

// v3Columns builds a column payload from 8 raw sub-columns.
func v3Columns(cols [8][]byte) []byte {
	var buf bytes.Buffer
	for _, c := range cols {
		putUv(&buf, uint64(len(c)))
		buf.Write(c)
	}
	return buf.Bytes()
}

// oneWriteColumns encodes a single write event at ba (4-byte span).
func oneWriteColumns(ba uint32) [8][]byte {
	var wrBA bytes.Buffer
	putUv(&wrBA, zigzag(int64(ba)))
	return [8][]byte{
		0: {0x01},       // interleave: event 0 is a write
		1: {},           // kind bitmap: no IR events
		5: wrBA.Bytes(), // write BA delta
		6: {4},          // write length
		7: {0},          // write PC delta
	}
}

// TestV3RejectsSemanticallyBadFrames: frames whose checksums verify but
// whose contents are self-contradictory must be rejected with the
// documented diagnostics — never decoded, never skipped over.
func TestV3RejectsSemanticallyBadFrames(t *testing.T) {
	const pn = 0x400000 >> 12
	goodCols := v3Columns(oneWriteColumns(0x400000))
	overflow := bytes.Repeat([]byte{0xff}, 11) // uvarint > 64 bits
	cases := []struct {
		name string
		file []byte
		want string
	}{
		{"summary pages on writeless block",
			v3File(v3Frame(v3Header(1, 1, 0)), v3Frame(v3Summary(1, 0, 7, 0)),
				v3Frame(v3Columns([8][]byte{0: {0}, 1: {0}, 2: {1}, 3: {0}, 4: {4}}))),
			"page summary on a writeless block"},
		{"bloom bits on writeless block",
			v3File(v3Frame(v3Header(1, 1, 0)), v3Frame(v3Summary(1, 0, 0, 0, 7)),
				v3Frame(v3Columns([8][]byte{0: {0}, 1: {0}, 2: {1}, 3: {0}, 4: {4}}))),
			"bloom bits on a writeless block"},
		{"write escapes summary",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(v3Columns(oneWriteColumns(0x409000)))),
			"escapes the block page summary"},
		{"interleave contradicts summary",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(v3Columns([8][]byte{0: {0x00}, 1: {0}, 2: {1}, 3: {0}, 4: {4}}))),
			"interleave bitmap marks 0 writes"},
		{"interleave padding bits set",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(v3Columns(func() [8][]byte {
					c := oneWriteColumns(0x400000)
					c[0] = []byte{0x81} // bit 7 pads a 1-event block
					return c
				}()))),
			"non-zero padding bits"},
		{"uvarint overflow in write column",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(v3Columns(func() [8][]byte {
					c := oneWriteColumns(0x400000)
					c[5] = overflow
					return c
				}()))),
			"uvarint overflows 64 bits"},
		{"uvarint overflow in obj column",
			v3File(v3Frame(v3Header(1, 1, 0)), v3Frame(v3Summary(1, 0, 0, 0)),
				v3Frame(v3Columns([8][]byte{0: {0}, 1: {0}, 2: overflow, 3: {0}, 4: {4}}))),
			"uvarint overflows 64 bits"},
		{"truncated column",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(v3Columns(func() [8][]byte {
					c := oneWriteColumns(0x400000)
					c[6] = nil // write-length column missing
					return c
				}()))),
			"wrLen column"},
		{"forged sub-column length",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				func() []byte {
					var buf bytes.Buffer
					putUv(&buf, 1<<30) // interleave claims 2^30 bytes
					return v3Frame(buf.Bytes())
				}()),
			"exceeds"},
		{"block count exceeds events",
			v3File(v3Frame(v3Header(5, 1, 0))),
			"block count 5 inconsistent"},
		{"header writes exceed events",
			v3File(v3Frame(v3Header(1, 1, 2))),
			"write count 2 exceeds event count 1"},
		{"fewer blocks than declared",
			v3File(v3Frame(v3Header(2, 4, 2)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(goodCols)),
			"byte offset"},
		{"block overruns header totals",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(2, 2, pn, 0, pn)),
				v3Frame(v3Columns([8][]byte{0: {0x03}, 1: {}, 5: {0, 0}, 6: {4, 4}, 7: {0, 0}}))),
			"overruns header totals"},
		{"totals short of header",
			v3File(v3Frame(v3Header(2, 4, 2)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(goodCols), v3Frame(v3Summary(1, 1, pn, 0, pn)), v3Frame(goodCols)),
			"header declared"},
		{"trailing data after last block",
			append(v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(goodCols)), 0xff),
			"after last block"},
		{"event count unbackable by columns",
			v3File(v3Frame(v3Header(1, 1<<20, 0)), v3Frame(v3Summary(1<<20, 0, 0, 0)),
				v3Frame(v3Columns([8][]byte{}))),
			"cannot fit"},
		{"absurd block event count",
			v3File(v3Frame(v3Header(1, 1<<30, 0)), v3Frame(v3Summary(1<<30, 0, 0, 0)),
				v3Frame(v3Columns([8][]byte{}))),
			"bad event count"},
		{"page summary beyond address space",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, 1<<21, 0, 1<<21)),
				v3Frame(goodCols)),
			"beyond the 32-bit address space"},
		{"summary missing bloom",
			v3File(v3Frame(v3Header(1, 1, 1)),
				func() []byte {
					var buf bytes.Buffer
					putUv(&buf, 1)
					putUv(&buf, 1)
					putUv(&buf, pn)
					putUv(&buf, 0)
					buf.Write(make([]byte, 8)) // 8 bloom bytes instead of 32
					return v3Frame(buf.Bytes())
				}(), v3Frame(goodCols)),
			"bloom bytes"},
		{"trailing bytes in column frame",
			v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, pn)),
				v3Frame(append(goodCols, 0x00))),
			"trailing bytes"},
	}
	for _, c := range cases {
		err := streamAll(c.file)
		if err == nil {
			t.Errorf("%s: streamed cleanly", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: diagnostic %q lacks %q", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Errorf("%s: diagnostic %q lacks byte offset", c.name, err)
		}
		if _, err := Read(bytes.NewReader(c.file)); err == nil {
			t.Errorf("%s: decoded cleanly via Read", c.name)
		}
	}
}

// TestV3CorruptionInjectionCaught: the per-frame post-checksum fault
// hook (fault.SiteTraceCorrupt) flips one bit in any of the file's 7
// frames depending on the rule's After window; every such at-rest
// corruption must be caught on read. The write-side half of the chaos
// contract for the columnar format.
func TestV3CorruptionInjectionCaught(t *testing.T) {
	const frames = 7 // header + 3 blocks x (summary, columns)
	for seed := int64(0); seed < 21; seed++ {
		fault.Activate(fault.NewPlan(seed, fault.Rule{
			Site: fault.SiteTraceCorrupt, Kind: fault.Corrupt,
			After: uint64(seed) % frames, Times: 1}))
		var buf bytes.Buffer
		err := WriteTo(&buf, sampleTrace(), WriteOptions{Version: 3, BlockEvents: 2})
		fault.Deactivate()
		if err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("seed %d: corrupted v3 trace decoded cleanly", seed)
		} else if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("seed %d: corruption not caught by checksum: %v", seed, err)
		}
		if err := streamAll(buf.Bytes()); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("seed %d: streaming pass missed the corruption: %v", seed, err)
		}
	}
}

// TestV3WriteFaultInjection: v3 writes share the v2 writer's error site.
func TestV3WriteFaultInjection(t *testing.T) {
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteTraceWrite, Key: "demo", Kind: fault.Permanent, Times: 1}))
	defer fault.Deactivate()
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{Version: 3}); err == nil {
		t.Fatal("armed write site did not fault")
	}
	if buf.Len() != 0 {
		t.Fatalf("faulted v3 write still emitted %d bytes", buf.Len())
	}
	if err := WriteTo(&buf, sampleTrace(), WriteOptions{Version: 3}); err != nil {
		t.Fatalf("retry after transient window: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("retried v3 write does not round-trip: %v", err)
	}
}

// TestOpenStreamFaultInjection: OpenStream shares trace.Read's fault
// site.
func TestOpenStreamFaultInjection(t *testing.T) {
	data := v3Sample(t)
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteTraceRead, Kind: fault.Transient, Times: 1}))
	defer fault.Deactivate()
	if _, err := OpenStream(bytes.NewReader(data)); !fault.IsTransient(err) {
		t.Fatalf("armed read site returned %v", err)
	}
	if err := streamAll(data); err != nil {
		t.Fatalf("stream after transient window: %v", err)
	}
}
