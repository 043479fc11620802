// Incremental v3 writer — the single block emitter behind every trace
// serialisation path.
//
// WriteTo is the unified entry point: version 2 delegates to the
// monolithic checksummed codec (trace.go), version 3 runs the block
// emitter below in "direct" mode (totals known up front, frames stream
// straight out). NewWriter exposes the same emitter incrementally for
// producers — the tracer above all — that do not hold a materialised
// []Event: events are appended one at a time, finished blocks are
// encoded immediately and spooled to a temp file, and Close stitches
// the final file together (header first, then the spooled frames), so
// peak memory is one block of events plus one encoded frame no matter
// how large the trace grows.
//
// Chaos semantics are preserved exactly: fault.Inject(SiteTraceWrite)
// fires before any byte is emitted, and fault.Mutate(SiteTraceCorrupt)
// fires once per frame *in final file order* (header, then each
// block's summary and column frames), after that frame's CRC is taken
// — the spool stores pristine payloads plus their CRCs, and mutation
// is applied as frames are replayed into the destination at Close.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"edb/internal/fault"
	"edb/internal/objects"
)

// WriteOptions selects the serialisation format for WriteTo.
type WriteOptions struct {
	// Version is the binary format version: 0 or 2 emit the
	// checksummed version-2 format, 3 the columnar streaming format.
	Version int
	// BlockEvents is the events-per-block for version 3 (<= 0 selects
	// DefaultBlockEvents); ignored for version 2.
	BlockEvents int
}

// WriteTo serialises t in the requested format. It is the single
// serialisation entry point for a materialised trace.
func WriteTo(w io.Writer, t *Trace, o WriteOptions) error {
	switch o.Version {
	case 0, version:
		return t.writeV2(w)
	case version3:
		return writeV3(w, t, o.BlockEvents)
	default:
		return fmt.Errorf("trace: writing %s: unsupported version %d", t.Program, o.Version)
	}
}

// WriterOptions configures an incremental Writer.
type WriterOptions struct {
	// Program names the benchmark (header metadata and fault-site key).
	Program string
	// Objects is the object table events refer to. The table may keep
	// growing while events are appended (the tracer allocates heap
	// objects mid-run); the header snapshot is taken at Close.
	Objects *objects.Table
	// BlockEvents is the events-per-block (<= 0 selects
	// DefaultBlockEvents).
	BlockEvents int
	// SpoolDir is where the block spool temp file is created
	// ("" = os.TempDir()).
	SpoolDir string
}

// Writer emits a version-3 trace incrementally: Append streams events
// in, finished blocks are encoded and spooled as they fill, and Close
// writes the final file. The trace never materialises in memory.
//
// Close must be called to produce output (the v3 header carries totals
// and the object table, which are only known once the run ends);
// Discard abandons a partially written trace without emitting a byte.
type Writer struct {
	bw      *bufio.Writer
	program string
	tab     *objects.Table
	// blockEvents is the blocking; direct reports header-at-open mode
	// (totals declared up front, frames bypass the spool).
	blockEvents int
	direct      bool
	baseCycles  uint64
	instret     uint64

	pending []Event // current partial block (spooled mode)

	nBlocks  uint64
	nEvents  uint64
	nWrites  uint64
	installs uint64
	removes  uint64

	spool     *os.File
	spoolPath string
	spoolW    *bufio.Writer
	frames    []spoolFrame

	// Reusable encode scratch.
	cols    [8]bytes.Buffer
	frame   bytes.Buffer
	buf     bytes.Buffer
	scratch [binary.MaxVarintLen64]byte

	err    error
	closed bool
}

// spoolFrame records one spooled frame's payload length and its CRC
// (taken at encode time, before any chaos mutation).
type spoolFrame struct {
	n   uint32
	crc uint32
}

// NewWriter starts an incremental v3 trace write to w. The fault
// injection site SiteTraceWrite fires here, before any byte is emitted.
func NewWriter(w io.Writer, o WriterOptions) (*Writer, error) {
	wr, err := newWriter(w, o, false)
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(o.SpoolDir, "edb-trace-spool-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("trace: writing %s: creating spool: %w", o.Program, err)
	}
	wr.spool = f
	wr.spoolPath = f.Name()
	wr.spoolW = bufio.NewWriterSize(f, 1<<16)
	return wr, nil
}

// newWriter builds the shared emitter state. direct mode is the
// internal path used by WriteTo for a materialised Trace: the caller
// already knows the totals, so the header is written immediately and
// blocks stream straight to the destination with no spool.
func newWriter(w io.Writer, o WriterOptions, direct bool) (*Writer, error) {
	if err := fault.Inject(fault.SiteTraceWrite, o.Program); err != nil {
		return nil, fmt.Errorf("trace: writing %s: %w", o.Program, err)
	}
	if o.Objects == nil {
		return nil, fmt.Errorf("trace: writing %s: nil object table", o.Program)
	}
	be := o.BlockEvents
	if be <= 0 {
		be = DefaultBlockEvents
	}
	return &Writer{
		bw:          bufio.NewWriterSize(w, 1<<16),
		program:     o.Program,
		tab:         o.Objects,
		blockEvents: be,
		direct:      direct,
	}, nil
}

// SetCounters records the run counters for the header. Call before
// Close (the tracer only knows them once the machine halts).
func (w *Writer) SetCounters(baseCycles, instret uint64) {
	w.baseCycles, w.instret = baseCycles, instret
}

// Counts returns the number of install, remove and write events
// appended so far.
func (w *Writer) Counts() (installs, removes, writes uint64) {
	return w.installs, w.removes, w.nWrites
}

// NumEvents returns the number of events appended so far.
func (w *Writer) NumEvents() uint64 { return w.nEvents }

// Append adds one event to the trace, encoding and spooling the
// current block when it fills.
func (w *Writer) Append(e Event) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return w.fail(fmt.Errorf("trace: writing %s: append after Close", w.program))
	}
	w.pending = append(w.pending, e)
	if len(w.pending) >= w.blockEvents {
		return w.sealPending()
	}
	return nil
}

// sealPending encodes the pending events as one block and clears them.
func (w *Writer) sealPending() error {
	if len(w.pending) == 0 {
		return nil
	}
	err := w.writeBlock(w.pending)
	w.pending = w.pending[:0]
	return err
}

// fail records the sticky write error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// emitFrame writes one frame (uvarint length, CRC, payload) to the
// destination, applying the per-frame corruption chaos hook. sum is
// the payload's CRC as taken at encode time, before mutation — so an
// injected bit flip is detectable by readers, modelling at-rest
// corruption.
func (w *Writer) emitFrame(payload []byte, sum uint32) error {
	fault.Mutate(fault.SiteTraceCorrupt, w.program, payload)
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], sum)
	if _, err := w.bw.Write(hdr[:n+4]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

// spoolFramePayload appends one encoded frame payload to the spool,
// recording its length and pre-mutation CRC for Close to replay.
func (w *Writer) spoolFramePayload(payload []byte) error {
	w.frames = append(w.frames, spoolFrame{n: uint32(len(payload)), crc: crc32.ChecksumIEEE(payload)})
	_, err := w.spoolW.Write(payload)
	return err
}

// writeBlock encodes one block (summary frame + column frame) and
// hands both payloads to the active sink: straight out in direct mode,
// onto the spool otherwise.
func (w *Writer) writeBlock(events []Event) error {
	sum := summarize(events)
	w.nBlocks++
	w.nEvents += uint64(sum.NEvents)
	w.nWrites += uint64(sum.NWrites)
	for i := range events {
		switch events[i].Kind {
		case EvInstall:
			w.installs++
		case EvRemove:
			w.removes++
		}
	}

	w.buf.Reset()
	putUvarint := func(b *bytes.Buffer, v uint64) {
		n := binary.PutUvarint(w.scratch[:], v)
		b.Write(w.scratch[:n])
	}
	putUvarint(&w.buf, uint64(sum.NEvents))
	putUvarint(&w.buf, uint64(sum.NWrites))
	putUvarint(&w.buf, uint64(sum.MinPage))
	putUvarint(&w.buf, uint64(sum.MaxPage-sum.MinPage))
	w.buf.Write(sum.Bloom[:])
	if err := w.sinkFrame(w.buf.Bytes()); err != nil {
		return w.fail(err)
	}

	for i := range w.cols {
		w.cols[i].Reset()
	}
	interleave := make([]byte, (len(events)+7)/8)
	kinds := make([]byte, (len(events)-sum.NWrites+7)/8)
	var prevIRBA, prevWrBA, prevPC int64
	ir := 0
	for i := range events {
		e := &events[i]
		if e.Kind == EvWrite {
			interleave[i>>3] |= 1 << (i & 7)
			ba := int64(uint32(e.BA))
			putUvarint(&w.cols[5], zigzag(ba-prevWrBA))
			prevWrBA = ba
			putUvarint(&w.cols[6], uint64(e.EA-e.BA))
			pc := int64(uint32(e.PC))
			putUvarint(&w.cols[7], zigzag(pc-prevPC))
			prevPC = pc
			continue
		}
		if e.Kind == EvRemove {
			kinds[ir>>3] |= 1 << (ir & 7)
		}
		ir++
		putUvarint(&w.cols[2], uint64(e.Obj))
		ba := int64(uint32(e.BA))
		putUvarint(&w.cols[3], zigzag(ba-prevIRBA))
		prevIRBA = ba
		putUvarint(&w.cols[4], uint64(e.EA-e.BA))
	}
	w.cols[0].Write(interleave)
	w.cols[1].Write(kinds)

	w.frame.Reset()
	for i := range w.cols {
		putUvarint(&w.frame, uint64(w.cols[i].Len()))
		w.frame.Write(w.cols[i].Bytes())
	}
	if err := w.sinkFrame(w.frame.Bytes()); err != nil {
		return w.fail(err)
	}
	return nil
}

// sinkFrame routes one encoded payload to the mode's sink.
func (w *Writer) sinkFrame(payload []byte) error {
	if w.direct {
		return w.emitFrame(payload, crc32.ChecksumIEEE(payload))
	}
	return w.spoolFramePayload(payload)
}

// writeHeader emits the file prologue: magic, version, and the header
// frame (metadata snapshot plus totals).
func (w *Writer) writeHeader() error {
	if _, err := w.bw.WriteString(magic); err != nil {
		return err
	}
	n := binary.PutUvarint(w.scratch[:], version3)
	if _, err := w.bw.Write(w.scratch[:n]); err != nil {
		return err
	}
	w.buf.Reset()
	writeMetaRaw(&w.buf, w.program, w.baseCycles, w.instret, w.tab)
	for _, v := range [3]uint64{w.nBlocks, w.nEvents, w.nWrites} {
		n := binary.PutUvarint(w.scratch[:], v)
		w.buf.Write(w.scratch[:n])
	}
	return w.emitFrame(w.buf.Bytes(), crc32.ChecksumIEEE(w.buf.Bytes()))
}

// Close seals the final block, writes the header, replays the spooled
// frames into the destination, and removes the spool. On a Writer that
// already failed it releases the spool and returns the sticky error.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	defer w.dropSpool()
	if w.err != nil {
		return w.err
	}
	if err := w.sealPending(); err != nil {
		return err
	}
	if !w.direct {
		if err := w.writeHeader(); err != nil {
			return w.fail(err)
		}
		if err := w.replaySpool(); err != nil {
			return w.fail(err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// Discard abandons the write: the spool is released and nothing is
// ever emitted to the destination. Used when the traced run itself
// fails mid-stream.
func (w *Writer) Discard() {
	if !w.closed {
		w.closed = true
		w.fail(fmt.Errorf("trace: writing %s: discarded", w.program))
	}
	w.dropSpool()
}

// replaySpool streams the spooled frame payloads into the destination
// in file order, applying the per-frame chaos hook as each is emitted.
func (w *Writer) replaySpool() error {
	if err := w.spoolW.Flush(); err != nil {
		return err
	}
	if _, err := w.spool.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(w.spool, 1<<16)
	var payload []byte
	for _, f := range w.frames {
		if uint32(cap(payload)) < f.n {
			payload = make([]byte, f.n)
		}
		payload = payload[:f.n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("trace: writing %s: reading spool: %w", w.program, err)
		}
		if err := w.emitFrame(payload, f.crc); err != nil {
			return err
		}
	}
	return nil
}

// dropSpool closes and removes the spool temp file (idempotent).
func (w *Writer) dropSpool() {
	if w.spool != nil {
		w.spool.Close()
		os.Remove(w.spoolPath)
		w.spool = nil
	}
}

// writeV3 serialises a materialised trace through the block emitter in
// direct mode: totals are computed up front, the header goes out
// first, and each block is encoded from a subslice of t.Events — no
// spool, no event copies.
func writeV3(w io.Writer, t *Trace, blockEvents int) error {
	wr, err := newWriter(w, WriterOptions{
		Program:     t.Program,
		Objects:     t.Objects,
		BlockEvents: blockEvents,
	}, true)
	if err != nil {
		return err
	}
	wr.SetCounters(t.BaseCycles, t.Instret)
	nEvents := len(t.Events)
	nBlocks := 0
	if nEvents > 0 {
		nBlocks = (nEvents + wr.blockEvents - 1) / wr.blockEvents
	}
	_, _, nWrites := t.Counts()
	wr.nBlocks, wr.nEvents, wr.nWrites = uint64(nBlocks), uint64(nEvents), uint64(nWrites)
	if err := wr.writeHeader(); err != nil {
		return err
	}
	// The counters double as running tallies in spooled mode; reset so
	// writeBlock's increments land back on the declared totals.
	wr.nBlocks, wr.nEvents, wr.nWrites = 0, 0, 0
	for off := 0; off < nEvents; off += wr.blockEvents {
		end := off + wr.blockEvents
		if end > nEvents {
			end = nEvents
		}
		if err := wr.writeBlock(t.Events[off:end]); err != nil {
			return err
		}
	}
	return wr.Close()
}

// materializeStream drains a Stream into a Trace: Read's v3 path.
func materializeStream(s *Stream) (*Trace, error) {
	t := &Trace{
		Program:    s.Program,
		BaseCycles: s.BaseCycles,
		Instret:    s.Instret,
		Objects:    s.Objects,
	}
	t.Events = make([]Event, 0, prealloc(s.NumEvents))
	for s.Next() {
		blk, err := s.DecodeIR()
		if err != nil {
			return nil, err
		}
		if err := s.DecodeWrites(); err != nil {
			return nil, err
		}
		t.Events = blk.AppendEvents(t.Events)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
