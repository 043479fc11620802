package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edb/internal/arch"
	"edb/internal/objects"
)

// blockSummaries returns the canonical summary of every blockEvents-event
// block of events: what the v3 writer must emit for that blocking.
func blockSummaries(events []Event, blockEvents int) []BlockSummary {
	var out []BlockSummary
	for off := 0; off < len(events); off += blockEvents {
		out = append(out, summarize(events[off:min(off+blockEvents, len(events))]))
	}
	return out
}

// bigTrace builds a multi-block-worthy trace with interleaved installs,
// removes, and writes across several pages and both address segments.
func bigTrace(events int) *Trace {
	rng := rand.New(rand.NewSource(7))
	tab := objects.NewTable()
	tr := &Trace{Program: "big", BaseCycles: 123, Instret: 456, Objects: tab}
	var live []struct {
		id     objects.ID
		ba, ea arch.Addr
	}
	heap := arch.Addr(0x1000000)
	for len(tr.Events) < events {
		switch rng.Intn(6) {
		case 0:
			size := arch.Addr(4 * (1 + rng.Intn(8)))
			id := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "h", SizeBytes: int(size)})
			tr.Events = append(tr.Events, Event{Kind: EvInstall, Obj: id, BA: heap, EA: heap + size})
			live = append(live, struct {
				id     objects.ID
				ba, ea arch.Addr
			}{id, heap, heap + size})
			heap += size + arch.Addr(rng.Intn(3)*4096)
		case 1:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				o := live[i]
				live = append(live[:i], live[i+1:]...)
				tr.Events = append(tr.Events, Event{Kind: EvRemove, Obj: o.id, BA: o.ba, EA: o.ea})
			}
		default:
			var ba arch.Addr
			if len(live) > 0 && rng.Intn(2) == 0 {
				o := live[rng.Intn(len(live))]
				ba = o.ba
			} else {
				ba = arch.Addr(0x400000 + rng.Intn(5000)*4)
			}
			tr.Events = append(tr.Events, Event{Kind: EvWrite, BA: ba, EA: ba + 4,
				PC: arch.Addr(0x10000 + rng.Intn(200)*4)})
		}
	}
	return tr
}

// TestV3RoundTrip pins Write(v3) ∘ Read ≡ id across block sizes,
// including degenerate 1-event blocks and blocks larger than the trace.
func TestV3RoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), bigTrace(1000)} {
		for _, be := range []int{1, 2, 3, 7, 64, DefaultBlockEvents} {
			var buf bytes.Buffer
			if err := WriteTo(&buf, tr, WriteOptions{Version: 3, BlockEvents: be}); err != nil {
				t.Fatalf("%s/be=%d: WriteTo: %v", tr.Program, be, err)
			}
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/be=%d: Read: %v", tr.Program, be, err)
			}
			if got.Program != tr.Program || got.BaseCycles != tr.BaseCycles || got.Instret != tr.Instret {
				t.Fatalf("%s/be=%d: header mismatch: %+v", tr.Program, be, got)
			}
			if !reflect.DeepEqual(got.Events, tr.Events) {
				t.Fatalf("%s/be=%d: events differ after v3 round trip", tr.Program, be)
			}
			if !reflect.DeepEqual(got.Objects.All(), tr.Objects.All()) {
				t.Fatalf("%s/be=%d: object tables differ", tr.Program, be)
			}
		}
	}
}

// TestV3RoundTripEmpty covers the zero-event trace: no blocks, and the
// materialised Events slice stays non-nil (matching the v2 reader).
func TestV3RoundTripEmpty(t *testing.T) {
	tr := &Trace{Program: "empty", Objects: objects.NewTable()}
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{Version: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events == nil || len(got.Events) != 0 {
		t.Fatalf("empty trace decoded to Events=%v, want non-nil empty", got.Events)
	}
	s, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks != 0 || s.Next() {
		t.Fatalf("empty trace stream: NumBlocks=%d Next=%v", s.NumBlocks, s.Next())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamIteration walks sampleTrace at 2 events/block and checks
// the whole streaming protocol: header totals, per-block summaries
// matching the canonical block summaries, idempotent DecodeIR, DecodeWrites without a
// prior DecodeIR call, and AppendEvents materialisation.
func TestStreamIteration(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Program != tr.Program || s.NumBlocks != 3 || s.NumEvents != 6 || s.NumWrites != 2 {
		t.Fatalf("stream header: %q blocks=%d events=%d writes=%d",
			s.Program, s.NumBlocks, s.NumEvents, s.NumWrites)
	}
	sums := blockSummaries(tr.Events, 2)
	if len(sums) != 3 {
		t.Fatalf("blockSummaries: %+v", sums)
	}
	var got []Event
	for i := 0; s.Next(); i++ {
		if *s.Summary() != sums[i] {
			t.Fatalf("block %d: stream summary %+v != canonical %+v", i, *s.Summary(), sums[i])
		}
		blk, err := s.DecodeIR()
		if err != nil {
			t.Fatal(err)
		}
		blk2, err := s.DecodeIR() // idempotent
		if err != nil || blk2 != blk {
			t.Fatalf("block %d: second DecodeIR: %p vs %p, %v", i, blk2, blk, err)
		}
		if blk.WritesDecoded {
			t.Fatalf("block %d: WritesDecoded before DecodeWrites", i)
		}
		if err := s.DecodeWrites(); err != nil {
			t.Fatal(err)
		}
		if !blk.WritesDecoded {
			t.Fatalf("block %d: WritesDecoded not set", i)
		}
		got = blk.AppendEvents(got)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatalf("streamed events differ:\n got %+v\nwant %+v", got, tr.Events)
	}
}

// TestDecodeWritesWithoutIR checks DecodeWrites runs DecodeIR
// implicitly.
func TestDecodeWritesWithoutIR(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{Version: 3}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for s.Next() {
		if err := s.DecodeWrites(); err != nil {
			t.Fatal(err)
		}
		blk, err := s.DecodeIR()
		if err != nil {
			t.Fatal(err)
		}
		got = blk.AppendEvents(got)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("events differ when DecodeWrites leads")
	}
}

// TestBlockSummarySemantics pins the skip-decision primitive: every
// written page answers true; NWrites==0 and out-of-range pages answer
// false.
func TestBlockSummarySemantics(t *testing.T) {
	tr := bigTrace(500)
	for bi, sum := range blockSummaries(tr.Events, 64) {
		lo, hi := bi*64, (bi+1)*64
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		for _, e := range tr.Events[lo:hi] {
			if e.Kind != EvWrite {
				continue
			}
			if pn := uint32(e.BA) >> 12; !sum.MayContainWritePage(pn) {
				t.Fatalf("block %d: false negative for written page %d", bi, pn)
			}
		}
	}
	var empty BlockSummary
	if empty.MayContainWritePage(0) {
		t.Fatal("writeless summary claims page 0")
	}
	one := summarize([]Event{{Kind: EvWrite, BA: 0x400000, EA: 0x400004}})
	if one.MayContainWritePage(0x400000>>12 + 1) {
		t.Fatal("summary claims page above MaxPage")
	}
	if !one.MayContainWritePage(0x400000 >> 12) {
		t.Fatal("summary denies its own page")
	}
}

// TestOpenStreamRejectsNonV3 pins the error for v1/v2 inputs (those go
// through Read) and for garbage.
func TestOpenStreamRejectsNonV3(t *testing.T) {
	var v2 bytes.Buffer
	if err := WriteTo(&v2, sampleTrace(), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(bytes.NewReader(v2.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "cannot stream version 2") {
		t.Fatalf("v2 OpenStream error = %v", err)
	}
	v1 := writeV1(sampleTrace())
	if _, err := OpenStream(bytes.NewReader(v1)); err == nil ||
		!strings.Contains(err.Error(), "cannot stream version 1") {
		t.Fatalf("v1 OpenStream error = %v", err)
	}
	if _, err := OpenStream(strings.NewReader("XXXX")); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("garbage OpenStream error = %v", err)
	}
	if _, err := OpenStream(strings.NewReader("")); err == nil {
		t.Fatal("empty OpenStream succeeded")
	}
}

// TestFileSource round-trips through an on-disk v3 file and checks Open
// failures surface.
func TestFileSource(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "t.v3.trace")
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{Version: 3, BlockEvents: 2}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src := FileSource(path)
	s, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for s.Next() {
		if err := s.DecodeWrites(); err != nil {
			t.Fatal(err)
		}
		blk, _ := s.DecodeIR()
		got = blk.AppendEvents(got)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("FileSource streamed events differ")
	}
	if _, err := FileSource(filepath.Join(t.TempDir(), "missing")).Open(); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
}

// TestV3Compactness keeps the columnar encoding honest: the delta+varint
// columns must beat the v2 row encoding on a real-shaped trace.
func TestV3Compactness(t *testing.T) {
	tr := bigTrace(4096)
	var v2, v3 bytes.Buffer
	if err := WriteTo(&v2, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(&v3, tr, WriteOptions{Version: 3}); err != nil {
		t.Fatal(err)
	}
	if v3.Len() >= v2.Len() {
		t.Fatalf("v3 (%d bytes) not smaller than v2 (%d bytes)", v3.Len(), v2.Len())
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 4096, -4096, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// TestFileSourceRejectsBadFile: an Open that reads a non-v3 file must
// fail (and close the descriptor) rather than hand back a stream.
func TestFileSourceRejectsBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.trace")
	if err := os.WriteFile(path, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FileSource(path).Open(); err == nil {
		t.Fatal("garbage file opened as a v3 stream")
	}
}
