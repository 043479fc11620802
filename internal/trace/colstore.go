// Columnar streaming trace store — binary format version 3.
//
// Version 2 frames the whole trace as one checksummed payload, which
// forces readers to materialise every event before replay can begin.
// Version 3 re-encodes the event stream as a sequence of columnar
// (structure-of-arrays) blocks so a reader can stream one block at a
// time into reusable buffers, verify each block independently, and —
// the point of the exercise — *skip decoding* the write columns of any
// block whose written-page summary cannot intersect the pages a replay
// engine is monitoring (internal/sim, streamed replay).
//
// Layout ("frame" below = uvarint(len) + crc32-IEEE(4B LE) + payload;
// every frame is independently checksummed):
//
//	"EDBT"  uvarint(version=3)
//	header frame:
//	    program, base cycles, instret, object table   (v2 meta encoding)
//	    uvarint(nBlocks) uvarint(nEvents) uvarint(nWrites)
//	then per block, two frames:
//	  summary frame:
//	    uvarint(nEvents) uvarint(nWrites)
//	    uvarint(minWritePage) uvarint(maxWritePage-minWritePage)
//	    bloom[32]          256-bit filter over written 4 KiB pages
//	  column frame: 8 sub-columns, each uvarint(len)-prefixed:
//	    0 interleave bitmap   bit i set = event i is a write
//	    1 kind bitmap         bit j set = j-th install/remove is a remove
//	    2 obj                 uvarint per install/remove
//	    3 irBA                zigzag varint delta per install/remove
//	    4 irLen               uvarint (EA−BA) per install/remove
//	    5 wrBA                zigzag varint delta per write
//	    6 wrLen               uvarint (EA−BA) per write
//	    7 wrPC                zigzag varint delta per write
//
// Delta chains restart at 0 in every block, so blocks decode
// independently. The summary frame is tiny and carries its own CRC, so
// a reader can make the skip decision before parsing any column; the
// column frame is still read and CRC-verified even when its write
// columns are skipped — the fast path never trades integrity for
// speed, it only elides decode and replay work.
//
// Skip soundness: the summary is conservative by construction (it
// covers exactly the 4 KiB pages written by the block's write events,
// and the bloom only ever over-approximates), so "summary cannot
// intersect the monitored pages" proves the block's writes can neither
// hit a monitor nor change any monitored page's write counter — see
// DESIGN.md §12 for the full argument.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/objects"
)

const (
	version3 = 3

	// DefaultBlockEvents is the events-per-block the v3 writer uses
	// unless told otherwise. Measured on the bps workload, smaller
	// blocks skip a markedly larger fraction of write columns under
	// sparse monitor sets (a heap page is hot for a few thousand
	// events, not for 64Ki) while per-block framing overhead stays
	// under 0.1%; 8Ki is the knee of that curve. See EXPERIMENTS.md.
	DefaultBlockEvents = 8192

	// maxBlockEvents caps a block's declared event count before any
	// allocation happens.
	maxBlockEvents = 1 << 24
	// maxSummaryFrame caps the summary-frame length (its payload is a
	// handful of varints plus the bloom).
	maxSummaryFrame = 1 << 10
	// bloomBytes is the page-bloom size: 256 bits.
	bloomBytes = 32
	// maxPageNumber bounds 4 KiB page numbers on the 32-bit simulated
	// machine.
	maxPageNumber = 1 << 20
)

// BlockSummary is the per-block metadata a streaming reader sees
// before deciding whether to decode the block's write columns: event
// counts plus a conservative summary of the 4 KiB pages the block's
// write events touch (min/max page and a 256-bit bloom filter).
type BlockSummary struct {
	NEvents int
	NWrites int
	// MinPage, MaxPage bound the written 4 KiB page numbers
	// (meaningful only when NWrites > 0).
	MinPage, MaxPage uint32
	// Bloom is a 256-bit filter over written 4 KiB page numbers.
	Bloom [bloomBytes]byte
}

// pageBloomBit maps a page number to its bloom bit. The multiplicative
// (Knuth) hash matters: page numbers from different segments are
// congruent mod small powers of two (globals at 0x400000, heap at
// 0x1000000), so taking low bits directly would alias whole segments.
func pageBloomBit(pn uint32) uint32 { return (pn * 2654435761) >> 24 }

func (s *BlockSummary) addPage(pn uint32) {
	b := pageBloomBit(pn)
	s.Bloom[b>>3] |= 1 << (b & 7)
}

// MayContainWritePage reports whether the block may contain a write
// event whose base address falls on 4 KiB page pn. False negatives are
// impossible (the writer summarises the actual write pages); false
// positives only cost a decode.
func (s *BlockSummary) MayContainWritePage(pn uint32) bool {
	if s.NWrites == 0 || pn < s.MinPage || pn > s.MaxPage {
		return false
	}
	b := pageBloomBit(pn)
	return s.Bloom[b>>3]&(1<<(b&7)) != 0
}

// summarize computes the canonical block summary of an event slice —
// the single source of truth for the writer's summary frames.
func summarize(events []Event) BlockSummary {
	var s BlockSummary
	s.NEvents = len(events)
	for i := range events {
		e := &events[i]
		if e.Kind != EvWrite {
			continue
		}
		pn := uint32(e.BA) >> 12
		if s.NWrites == 0 {
			s.MinPage, s.MaxPage = pn, pn
		} else {
			if pn < s.MinPage {
				s.MinPage = pn
			}
			if pn > s.MaxPage {
				s.MaxPage = pn
			}
		}
		s.NWrites++
		s.addPage(pn)
	}
	return s
}

// zigzag / unzigzag are the standard signed-varint mappings used by the
// per-column delta encodings.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Block is one decoded v3 block in columnar form, reused across
// iterations of one Stream. IR* slices hold the install/remove events
// in stream order; Wr* the writes (empty until DecodeWrites); IsWrite
// is the interleave bitmap as booleans, reconstructing full event
// order.
type Block struct {
	NEvents int
	NWrites int
	IsWrite []bool
	IRKind  []EventKind
	IRObj   []objects.ID
	IRBA    []arch.Addr
	IREA    []arch.Addr
	WrBA    []arch.Addr
	WrEA    []arch.Addr
	WrPC    []arch.Addr
	// WritesDecoded reports whether the write columns were decoded
	// (false on the skip path: Wr* are empty and only the summary's
	// NWrites is known about them).
	WritesDecoded bool
}

// AppendEvents materialises the block's events in stream order onto
// dst. The write columns must have been decoded.
func (b *Block) AppendEvents(dst []Event) []Event {
	ir, wr := 0, 0
	for i := 0; i < b.NEvents; i++ {
		if b.IsWrite[i] {
			dst = append(dst, Event{Kind: EvWrite, BA: b.WrBA[wr], EA: b.WrEA[wr], PC: b.WrPC[wr]})
			wr++
		} else {
			dst = append(dst, Event{Kind: b.IRKind[ir], Obj: b.IRObj[ir], BA: b.IRBA[ir], EA: b.IREA[ir]})
			ir++
		}
	}
	return dst
}

// StreamSource hands out independent Streams over the same v3 file, so
// each replay of it runs its own single pass.
type StreamSource interface {
	Open() (*Stream, error)
}

// FileSource returns a StreamSource that opens the v3 trace file at
// path with double-buffered readahead (readahead.go); each Open is an
// independent handle owned (and closed) by the returned Stream.
func FileSource(path string) StreamSource { return fileSource(path) }

type bytesSource []byte

// BytesSource returns a StreamSource over an in-memory v3 file.
func BytesSource(data []byte) StreamSource { return bytesSource(data) }

func (b bytesSource) Open() (*Stream, error) { return OpenStream(bytes.NewReader(b)) }

func (b bytesSource) openRawAt(off int64) (io.ReadCloser, error) {
	if off < 0 || off > int64(len(b)) {
		return nil, fmt.Errorf("trace: byte offset %d outside %d-byte source", off, len(b))
	}
	return io.NopCloser(bytes.NewReader(b[off:])), nil
}

// Stream is a streaming reader over a v3 trace file: the header is
// decoded eagerly; blocks are visited one at a time with Next and
// decoded on demand into one reusable Block — a full pass never
// materialises []Event. The iteration protocol:
//
//	s, err := trace.OpenStream(r)
//	for s.Next() {
//	    sum := s.Summary()            // skip decision inputs
//	    blk, err := s.DecodeIR()      // install/remove columns
//	    if !skippable {
//	        err = s.DecodeWrites()    // write columns, same blk
//	    }
//	}
//	err = s.Err()                     // totals + trailing-data checks
//
// Next always reads and CRC-verifies both of the block's frames, so
// corruption is detected even on blocks whose write columns are never
// decoded.
type Stream struct {
	Program    string
	BaseCycles uint64
	Instret    uint64
	Objects    *objects.Table
	// NumBlocks/NumEvents/NumWrites are the header-declared totals;
	// the per-block counts are checked against them as iteration ends.
	NumBlocks int
	NumEvents uint64
	NumWrites uint64

	d      *decoder
	closer io.Closer
	err    error
	done   bool

	blockIdx             int
	sumEvents, sumWrites uint64
	sum                  BlockSummary

	sumBuf     []byte // summary-frame payload scratch
	payload    []byte // column-frame payload of the current block
	payloadOff int64  // file offset of payload[0]
	wrStart    int    // payload offset of the write columns (after DecodeIR)
	blk        Block
	irDone     bool
}

// OpenStream opens a version-3 trace file for block-at-a-time
// streaming, decoding the file header (program, object table, totals).
// v1/v2 files are rejected — materialise those with Read. Close the
// stream when done (a no-op unless the Stream owns the underlying
// file, as with FileSource).
func OpenStream(r io.Reader) (*Stream, error) {
	if err := fault.Inject(fault.SiteTraceRead, ""); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: byte offset 0: reading magic: %w", noEOF(err))
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: byte offset 0: bad magic %q", head)
	}
	d := &decoder{r: br, off: int64(len(magic)), remaining: -1}
	v, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if v != version3 {
		return nil, fmt.Errorf("trace: byte offset %d: cannot stream version %d (only version 3 is columnar; use Read)",
			len(magic), v)
	}
	return newStream(d)
}

// readFrame reads one length-prefixed, CRC32-checked frame into buf
// (grown as needed and returned), verifying the checksum. The declared
// length is attacker-controlled, so the buffer grows chunk-by-chunk as
// bytes actually arrive rather than trusting the length up front.
func (d *decoder) readFrame(what string, buf []byte, maxLen uint64) ([]byte, error) {
	lenOff := d.off
	plen, err := d.uvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if plen > maxLen {
		return nil, d.errAt(lenOff, "%s length %d exceeds cap %d", what, plen, maxLen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(d.r, crcBuf[:]); err != nil {
		return nil, d.errAt(d.off, "reading %s checksum: %w", what, noEOF(err))
	}
	d.off += 4
	want := binary.LittleEndian.Uint32(crcBuf[:])
	buf = buf[:0]
	for read := uint64(0); read < plen; {
		chunk := plen - read
		if chunk > 1<<16 {
			chunk = 1 << 16
		}
		off := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(d.r, buf[off:]); err != nil {
			return nil, d.errAt(d.off, "reading %s: %w", what, noEOF(err))
		}
		d.off += int64(chunk)
		read += chunk
	}
	if got := crc32.ChecksumIEEE(buf); got != want {
		return nil, d.errAt(lenOff,
			"%s checksum mismatch: computed %08x, stored %08x (%d payload bytes)",
			what, got, want, plen)
	}
	return buf, nil
}

// newStream decodes the header frame; d is positioned just after the
// version field.
func newStream(d *decoder) (*Stream, error) {
	s := &Stream{d: d}
	payload, err := d.readFrame("header frame", nil, maxPayload)
	if err != nil {
		return nil, err
	}
	hd := &decoder{
		r:         bufio.NewReader(bytes.NewReader(payload)),
		off:       d.off - int64(len(payload)),
		remaining: int64(len(payload)),
	}
	t := &Trace{Objects: objects.NewTable()}
	if err := hd.readMeta(t); err != nil {
		return nil, err
	}
	s.Program, s.BaseCycles, s.Instret, s.Objects = t.Program, t.BaseCycles, t.Instret, t.Objects
	cntOff := hd.off
	nBlocks, err := hd.uvarint("block count")
	if err != nil {
		return nil, err
	}
	if s.NumEvents, err = hd.uvarint("event count"); err != nil {
		return nil, err
	}
	if s.NumWrites, err = hd.uvarint("write count"); err != nil {
		return nil, err
	}
	if hd.remaining != 0 {
		return nil, hd.errAt(hd.off, "%d trailing bytes in header frame", hd.remaining)
	}
	// Every block holds >= 1 event, so the block count is bounded by
	// the event count; the totals must be mutually consistent.
	if nBlocks > s.NumEvents || (nBlocks == 0) != (s.NumEvents == 0) {
		return nil, hd.errAt(cntOff, "block count %d inconsistent with event count %d", nBlocks, s.NumEvents)
	}
	if s.NumWrites > s.NumEvents {
		return nil, hd.errAt(cntOff, "write count %d exceeds event count %d", s.NumWrites, s.NumEvents)
	}
	s.NumBlocks = int(nBlocks)
	return s, nil
}

// Close releases the underlying file when the Stream owns one
// (FileSource); otherwise it is a no-op.
func (s *Stream) Close() error {
	if s.closer != nil {
		c := s.closer
		s.closer = nil
		return c.Close()
	}
	return nil
}

// Err returns the first error the iteration hit, if any. Valid after
// Next returns false.
func (s *Stream) Err() error { return s.err }

// Summary returns the current block's summary frame. Valid after a
// true Next, until the next call to Next.
func (s *Stream) Summary() *BlockSummary { return &s.sum }

// fail records the iteration error.
func (s *Stream) fail(err error) bool {
	s.err = err
	s.done = true
	return false
}

// Next advances to the next block, reading and CRC-verifying its
// summary and column frames. It returns false when the file is
// exhausted (then Err reports nil and the header totals have been
// verified against the per-block counts) or on error (Err non-nil).
func (s *Stream) Next() bool {
	if s.done || s.err != nil {
		return false
	}
	if s.blockIdx == s.NumBlocks {
		s.done = true
		if s.sumEvents != s.NumEvents || s.sumWrites != s.NumWrites {
			return s.fail(s.d.errAt(s.d.off,
				"blocks hold %d events / %d writes, header declared %d / %d",
				s.sumEvents, s.sumWrites, s.NumEvents, s.NumWrites))
		}
		if _, err := s.d.r.ReadByte(); err != io.EOF {
			if err != nil {
				return s.fail(s.d.errAt(s.d.off, "after last block: %w", err))
			}
			return s.fail(s.d.errAt(s.d.off, "trailing data after last block"))
		}
		return false
	}

	sumOff := s.d.off
	buf, err := s.d.readFrame("block summary frame", s.sumBuf, maxSummaryFrame)
	if err != nil {
		return s.fail(err)
	}
	s.sumBuf = buf
	if ok := s.parseSummary(buf, sumOff); !ok {
		return false
	}

	colOff := s.d.off
	payload, err := s.d.readFrame("block column frame", s.payload, maxPayload)
	if err != nil {
		return s.fail(err)
	}
	s.payload = payload
	s.payloadOff = colOff
	// The interleave bitmap alone needs ceil(nEvents/8) bytes, so a
	// declared count the frame cannot back is rejected before the
	// decode buffers are sized from it.
	if s.sum.NEvents > 8*len(payload) {
		return s.fail(s.d.errAt(sumOff, "block %d: %d events cannot fit %d column bytes",
			s.blockIdx, s.sum.NEvents, len(payload)))
	}

	s.sumEvents += uint64(s.sum.NEvents)
	s.sumWrites += uint64(s.sum.NWrites)
	if s.sumEvents > s.NumEvents || s.sumWrites > s.NumWrites {
		return s.fail(s.d.errAt(sumOff, "block %d overruns header totals (%d/%d events, %d/%d writes)",
			s.blockIdx, s.sumEvents, s.NumEvents, s.sumWrites, s.NumWrites))
	}
	s.blockIdx++
	s.irDone = false
	s.blk.WritesDecoded = false
	return true
}

// parseSummary decodes and validates one summary-frame payload.
func (s *Stream) parseSummary(buf []byte, frameOff int64) bool {
	c := colCursor{b: buf, base: frameOff}
	nEvents, err := c.uvarint("block event count")
	if err != nil {
		return s.fail(err)
	}
	nWrites, err := c.uvarint("block write count")
	if err != nil {
		return s.fail(err)
	}
	minPage, err := c.uvarint("block min page")
	if err != nil {
		return s.fail(err)
	}
	span, err := c.uvarint("block page span")
	if err != nil {
		return s.fail(err)
	}
	if nEvents == 0 || nEvents > maxBlockEvents {
		return s.fail(c.errAt(0, "block %d: bad event count %d", s.blockIdx, nEvents))
	}
	if nWrites > nEvents {
		return s.fail(c.errAt(0, "block %d: write count %d exceeds event count %d",
			s.blockIdx, nWrites, nEvents))
	}
	if minPage+span >= maxPageNumber {
		return s.fail(c.errAt(0, "block %d: page summary %d+%d beyond the 32-bit address space",
			s.blockIdx, minPage, span))
	}
	if len(buf)-c.pos != bloomBytes {
		return s.fail(c.errAt(c.pos, "block %d: summary holds %d bloom bytes, want %d",
			s.blockIdx, len(buf)-c.pos, bloomBytes))
	}
	s.sum = BlockSummary{
		NEvents: int(nEvents),
		NWrites: int(nWrites),
		MinPage: uint32(minPage),
		MaxPage: uint32(minPage + span),
	}
	copy(s.sum.Bloom[:], buf[c.pos:])
	if nWrites == 0 {
		// Writeless blocks must carry the canonical empty summary — a
		// CRC-valid frame claiming pages it has no writes for is
		// corruption, not conservatism.
		if minPage != 0 || span != 0 {
			return s.fail(c.errAt(0, "block %d: page summary on a writeless block", s.blockIdx))
		}
		for _, b := range s.sum.Bloom {
			if b != 0 {
				return s.fail(c.errAt(c.pos, "block %d: bloom bits on a writeless block", s.blockIdx))
			}
		}
	}
	return true
}

// colCursor decodes one in-memory payload while reporting errors at
// absolute file offsets (base + position).
type colCursor struct {
	b    []byte
	pos  int
	base int64
}

func (c *colCursor) errAt(pos int, format string, args ...any) error {
	return fmt.Errorf("trace: byte offset "+fmt.Sprint(c.base+int64(pos))+": "+format, args...)
}

func (c *colCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, c.errAt(c.pos, "reading %s: %w", what, io.ErrUnexpectedEOF)
		}
		return 0, c.errAt(c.pos, "%s: uvarint overflows 64 bits", what)
	}
	c.pos += n
	return v, nil
}

// sub reads a sub-column length prefix and returns a cursor over
// exactly those bytes, advancing past them.
func (c *colCursor) sub(what string) (colCursor, error) {
	start := c.pos
	n, err := c.uvarint(what + " length")
	if err != nil {
		return colCursor{}, err
	}
	if n > uint64(len(c.b)-c.pos) {
		return colCursor{}, c.errAt(start, "%s length %d exceeds %d remaining frame bytes",
			what, n, len(c.b)-c.pos)
	}
	sc := colCursor{b: c.b[c.pos : c.pos+int(n)], base: c.base + int64(c.pos)}
	c.pos += int(n)
	return sc, nil
}

func (c *colCursor) remaining() int { return len(c.b) - c.pos }

// growBool / growAddr / growKind / growID resize reusable column
// buffers without reallocating when capacity suffices.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growAddr(s []arch.Addr, n int) []arch.Addr {
	if cap(s) < n {
		return make([]arch.Addr, n)
	}
	return s[:n]
}

func growKind(s []EventKind, n int) []EventKind {
	if cap(s) < n {
		return make([]EventKind, n)
	}
	return s[:n]
}

func growID(s []objects.ID, n int) []objects.ID {
	if cap(s) < n {
		return make([]objects.ID, n)
	}
	return s[:n]
}

// readBitmap decodes one length-prefixed bitmap sub-column of nBits
// bits, checking the byte length and that padding bits are zero, and
// returns the raw bytes.
func (c *colCursor) readBitmap(what string, nBits int) ([]byte, error) {
	sc, err := c.sub(what)
	if err != nil {
		return nil, err
	}
	want := (nBits + 7) / 8
	if len(sc.b) != want {
		return nil, sc.errAt(0, "%s holds %d bytes for %d bits, want %d", what, len(sc.b), nBits, want)
	}
	if pad := 8*want - nBits; pad > 0 && want > 0 {
		if sc.b[want-1]>>(8-pad) != 0 {
			return nil, sc.errAt(want-1, "%s has non-zero padding bits", what)
		}
	}
	return sc.b, nil
}

// DecodeIR decodes the current block's interleave bitmap and
// install/remove columns into the stream's reusable Block, leaving the
// write columns undecoded (DecodeWrites adds them). Valid after a true
// Next; the returned Block is invalidated by the next Next.
func (s *Stream) DecodeIR() (*Block, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.irDone {
		return &s.blk, nil
	}
	b := &s.blk
	n, nWr := s.sum.NEvents, s.sum.NWrites
	nIR := n - nWr
	b.NEvents, b.NWrites = n, nWr
	b.WrBA, b.WrEA, b.WrPC = b.WrBA[:0], b.WrEA[:0], b.WrPC[:0]
	b.WritesDecoded = false

	c := colCursor{b: s.payload, base: s.payloadOff}
	inter, err := c.readBitmap("interleave bitmap", n)
	if err != nil {
		return nil, s.failDecode(err)
	}
	wr := 0
	for _, by := range inter {
		wr += bits.OnesCount8(by)
	}
	if wr != nWr {
		return nil, s.failDecode(c.errAt(0, "interleave bitmap marks %d writes, summary says %d", wr, nWr))
	}
	b.IsWrite = growBool(b.IsWrite, n)
	for i := 0; i < n; i++ {
		b.IsWrite[i] = inter[i>>3]&(1<<(i&7)) != 0
	}

	kinds, err := c.readBitmap("kind bitmap", nIR)
	if err != nil {
		return nil, s.failDecode(err)
	}
	b.IRKind = growKind(b.IRKind, nIR)
	for j := 0; j < nIR; j++ {
		if kinds[j>>3]&(1<<(j&7)) != 0 {
			b.IRKind[j] = EvRemove
		} else {
			b.IRKind[j] = EvInstall
		}
	}

	obj, err := c.sub("obj column")
	if err != nil {
		return nil, s.failDecode(err)
	}
	b.IRObj = growID(b.IRObj, nIR)
	ob, opos := obj.b, 0
	for j := 0; j < nIR; j++ {
		var v uint64
		if opos < len(ob) && ob[opos] < 0x80 {
			v = uint64(ob[opos])
			opos++
		} else if opos+1 < len(ob) && ob[opos+1] < 0x80 {
			v = uint64(ob[opos]&0x7f) | uint64(ob[opos+1])<<7
			opos += 2
		} else {
			var n int
			v, n = binary.Uvarint(ob[opos:])
			if n <= 0 {
				if n == 0 {
					return nil, s.failDecode(obj.errAt(opos, "reading event object: %w", io.ErrUnexpectedEOF))
				}
				return nil, s.failDecode(obj.errAt(opos, "event object: uvarint overflows 64 bits"))
			}
			opos += n
		}
		b.IRObj[j] = objects.ID(v)
	}
	if opos != len(ob) {
		return nil, s.failDecode(obj.errAt(opos, "%d trailing bytes in obj column", len(ob)-opos))
	}

	b.IRBA = growAddr(b.IRBA, nIR)
	if err := c.deltaColumn("irBA column", b.IRBA); err != nil {
		return nil, s.failDecode(err)
	}
	b.IREA = growAddr(b.IREA, nIR)
	if err := c.lenColumn("irLen column", b.IRBA, b.IREA); err != nil {
		return nil, s.failDecode(err)
	}

	s.wrStart = c.pos
	s.irDone = true
	return b, nil
}

// failDecode records a decode error so later iteration stops too.
func (s *Stream) failDecode(err error) error {
	s.err = err
	s.done = true
	return err
}

// deltaColumn decodes one zigzag-delta sub-column into dst (the chain
// starts at 0 for every block). The loop runs once per event, so the
// 1- and 2-byte varint cases are inlined over the raw payload; only
// longer (or truncated/overflowing) encodings fall back to
// binary.Uvarint and its error reporting.
func (c *colCursor) deltaColumn(what string, dst []arch.Addr) error {
	sc, err := c.sub(what)
	if err != nil {
		return err
	}
	b := sc.b
	pos := 0
	var prev uint64
	for i := range dst {
		var v uint64
		if pos < len(b) && b[pos] < 0x80 {
			v = uint64(b[pos])
			pos++
		} else if pos+1 < len(b) && b[pos+1] < 0x80 {
			v = uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7
			pos += 2
		} else {
			var n int
			v, n = binary.Uvarint(b[pos:])
			if n <= 0 {
				if n == 0 {
					return sc.errAt(pos, "reading %s delta: %w", what, io.ErrUnexpectedEOF)
				}
				return sc.errAt(pos, "%s delta: uvarint overflows 64 bits", what)
			}
			pos += n
		}
		prev += uint64(unzigzag(v))
		dst[i] = arch.Addr(prev)
	}
	if pos != len(b) {
		return sc.errAt(pos, "%d trailing bytes in %s", len(b)-pos, what)
	}
	return nil
}

// lenColumn decodes one uvarint length sub-column as EA = BA + len,
// with the same inlined varint fast paths as deltaColumn.
func (c *colCursor) lenColumn(what string, ba, ea []arch.Addr) error {
	sc, err := c.sub(what)
	if err != nil {
		return err
	}
	b := sc.b
	pos := 0
	for i := range ea {
		var v uint64
		if pos < len(b) && b[pos] < 0x80 {
			v = uint64(b[pos])
			pos++
		} else if pos+1 < len(b) && b[pos+1] < 0x80 {
			v = uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7
			pos += 2
		} else {
			var n int
			v, n = binary.Uvarint(b[pos:])
			if n <= 0 {
				if n == 0 {
					return sc.errAt(pos, "reading %s value: %w", what, io.ErrUnexpectedEOF)
				}
				return sc.errAt(pos, "%s value: uvarint overflows 64 bits", what)
			}
			pos += n
		}
		ea[i] = ba[i] + arch.Addr(v)
	}
	if pos != len(b) {
		return sc.errAt(pos, "%d trailing bytes in %s", len(b)-pos, what)
	}
	return nil
}

// DecodeWrites decodes the current block's write columns into the same
// Block DecodeIR returned, and validates every write against the
// summary frame: a CRC-valid summary that excludes one of its own
// write pages would make block skipping unsound, so it is rejected as
// corruption here.
func (s *Stream) DecodeWrites() error {
	if _, err := s.DecodeIR(); err != nil {
		return err
	}
	b := &s.blk
	if b.WritesDecoded {
		return nil
	}
	c := colCursor{b: s.payload, pos: s.wrStart, base: s.payloadOff}
	b.WrBA = growAddr(b.WrBA[:0], b.NWrites)
	if err := c.deltaColumn("wrBA column", b.WrBA); err != nil {
		return s.failDecode(err)
	}
	b.WrEA = growAddr(b.WrEA, b.NWrites)
	if err := c.lenColumn("wrLen column", b.WrBA, b.WrEA); err != nil {
		return s.failDecode(err)
	}
	b.WrPC = growAddr(b.WrPC, b.NWrites)
	if err := c.deltaColumn("wrPC column", b.WrPC); err != nil {
		return s.failDecode(err)
	}
	if c.remaining() != 0 {
		return s.failDecode(c.errAt(c.pos, "%d trailing bytes in column frame", c.remaining()))
	}
	for i, ba := range b.WrBA {
		if pn := uint32(ba) >> 12; !s.sum.MayContainWritePage(pn) {
			return s.failDecode(c.errAt(0, "write %d on page %d escapes the block page summary", i, pn))
		}
	}
	b.WritesDecoded = true
	return nil
}

// readV3 materialises a version-3 file into a Trace — the Read path
// for v3, built on the streaming reader so there is exactly one
// decoder. d is positioned just after the version field.
func readV3(d *decoder) (*Trace, error) {
	s, err := newStream(d)
	if err != nil {
		return nil, err
	}
	return materializeStream(s)
}
