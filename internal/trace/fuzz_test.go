package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceRead hammers the binary decoders — the materialising Read
// across all three on-disk versions and the v3 streaming reader:
// arbitrary input must either decode into a trace that re-encodes and
// re-decodes to the same value (through both the v2 and v3 writers),
// or fail with an error — never crash, hang, or over-allocate, and
// never let Read and the streaming pass disagree about validity. The
// seed corpus combines in-memory seeds (valid v1/v2/v3 files,
// truncations and mutations of each, forged v3 block and column
// lengths, CRC-valid-but-lying summaries, per-column uvarint
// overflows) with the checked-in testdata/fuzz/FuzzTraceRead corpus
// derived from the five benchmark workloads' traces (regenerate with
// EDB_REGEN_FUZZ_CORPUS=1, see corpusgen_test.go).
func FuzzTraceRead(f *testing.F) {
	var v2 bytes.Buffer
	if err := WriteTo(&v2, sampleTrace(), WriteOptions{}); err != nil {
		f.Fatal(err)
	}
	v1 := writeV1(sampleTrace())
	var v3 bytes.Buffer
	if err := WriteTo(&v3, sampleTrace(), WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		f.Fatal(err)
	}
	var v3one bytes.Buffer // degenerate 1-event blocks
	if err := WriteTo(&v3one, sampleTrace(), WriteOptions{Version: 3, BlockEvents: 1}); err != nil {
		f.Fatal(err)
	}
	const pn = uint64(0x400000 >> 12)
	seeds := [][]byte{
		v2.Bytes(),
		v1,
		v3.Bytes(),
		v3one.Bytes(),
		v2.Bytes()[:len(v2.Bytes())/2],
		v1[:len(v1)/2],
		v3.Bytes()[:len(v3.Bytes())/2],
		[]byte(magic),
		[]byte(magic + "\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // absurd payload length
		[]byte(magic + "\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // absurd v1 string length
		[]byte(magic + "\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // absurd v3 frame length
		{},
		// Handcrafted v3 adversaries (builders in corrupt_v3_test.go):
		// forged block count, lying summaries, overflowing columns,
		// forged sub-column lengths.
		v3File(v3Frame(v3Header(5, 1, 0))),
		v3File(v3Frame(v3Header(1, 1, 0)), v3Frame(v3Summary(1, 0, 7, 0)),
			v3Frame(v3Columns([8][]byte{0: {0}, 1: {0}, 2: {1}, 3: {0}, 4: {4}}))),
		v3File(v3Frame(v3Header(1, 1, 0)), v3Frame(v3Summary(1, 0, 0, 0, 7)),
			v3Frame(v3Columns([8][]byte{0: {0}, 1: {0}, 2: {1}, 3: {0}, 4: {4}}))),
		v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, uint32(pn))),
			v3Frame(v3Columns(oneWriteColumns(0x409000)))),
		v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, uint32(pn))),
			v3Frame(v3Columns(func() [8][]byte {
				c := oneWriteColumns(0x400000)
				c[5] = bytes.Repeat([]byte{0xff}, 11)
				return c
			}()))),
		v3File(v3Frame(v3Header(1, 1, 1)), v3Frame(v3Summary(1, 1, pn, 0, uint32(pn))),
			func() []byte {
				var buf bytes.Buffer
				putUv(&buf, 1<<30)
				return v3Frame(buf.Bytes())
			}()),
	}
	// One-byte mutants of the valid files reach deep decoder branches.
	for _, base := range [][]byte{v2.Bytes(), v1, v3.Bytes()} {
		for i := 0; i < len(base); i += 7 {
			mut := append([]byte(nil), base...)
			mut[i] ^= 0x40
			seeds = append(seeds, mut)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		// A v3 file must stream exactly when it materialises: the two
		// readers share frame and column validation, and a divergence
		// would let the replay fast path accept what Read rejects.
		if len(data) > 4 && string(data[:4]) == magic && data[4] == 3 {
			if serr := streamAll(data); (serr == nil) != (err == nil) {
				t.Fatalf("Read err=%v but streaming pass err=%v", err, serr)
			}
		}
		if err != nil {
			return // rejected input is fine; crashing is not
		}
		// Anything the decoder accepts must round-trip exactly through
		// the current writers — both the v2 row format and the v3
		// columnar format.
		var buf bytes.Buffer
		if err := WriteTo(&buf, tr, WriteOptions{}); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if tr2.Program != tr.Program || tr2.BaseCycles != tr.BaseCycles || tr2.Instret != tr.Instret {
			t.Fatalf("round-trip header drift: %+v vs %+v", tr2, tr)
		}
		if !reflect.DeepEqual(tr2.Events, tr.Events) {
			t.Fatal("round-trip event drift")
		}
		if !reflect.DeepEqual(tr2.Objects.All(), tr.Objects.All()) {
			t.Fatal("round-trip object-table drift")
		}
		buf.Reset()
		if err := WriteTo(&buf, tr, WriteOptions{Version: 3, BlockEvents: 3}); err != nil {
			t.Fatalf("re-encoding accepted trace as v3: %v", err)
		}
		tr3, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decoding v3 re-encoding: %v", err)
		}
		if !reflect.DeepEqual(tr3.Events, tr.Events) {
			t.Fatal("v3 round-trip event drift")
		}
		if !reflect.DeepEqual(tr3.Objects.All(), tr.Objects.All()) {
			t.Fatal("v3 round-trip object-table drift")
		}
	})
}
