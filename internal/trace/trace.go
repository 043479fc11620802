// Package trace defines the program event trace — the output of phase 1
// of the paper's experiment (Figure 1) — and binary/text codecs for it.
//
// A trace carries exactly the three event kinds of §6:
//
//	InstallMonitorEvent [ObjectDesc, BA, EA]
//	RemoveMonitorEvent  [ObjectDesc, BA, EA]
//	WriteEvent          [BA, EA]   (plus the writing PC, which the WMS
//	                                interface hands to MonitorNotification)
//
// The trace is independent of any particular monitor session: install
// and remove events are recorded for *every* program object that any
// session type could select, and phase 2 replays one trace against many
// sessions.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/objects"
)

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds.
const (
	EvInstall EventKind = iota
	EvRemove
	EvWrite
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvInstall:
		return "install"
	case EvRemove:
		return "remove"
	case EvWrite:
		return "write"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	Kind EventKind
	// Obj identifies the program object for install/remove events.
	Obj objects.ID
	// BA, EA delimit the written or monitored range [BA, EA).
	BA, EA arch.Addr
	// PC is the program counter of the write (write events only).
	PC arch.Addr
}

// Trace is one complete program event trace plus run metadata.
type Trace struct {
	// Program names the benchmark.
	Program string
	// BaseCycles is the uninstrumented run's cycle count (the paper's
	// "base program execution time" denominator).
	BaseCycles uint64
	// Instret is the retired instruction count.
	Instret uint64
	// Objects is the object table events refer to.
	Objects *objects.Table
	// Events is the event stream in execution order.
	Events []Event
}

// BaseSeconds returns the base execution time in simulated seconds.
func (t *Trace) BaseSeconds() float64 { return arch.CyclesToSeconds(t.BaseCycles) }

// Counts tallies events by kind.
func (t *Trace) Counts() (installs, removes, writes int) {
	for _, e := range t.Events {
		switch e.Kind {
		case EvInstall:
			installs++
		case EvRemove:
			removes++
		case EvWrite:
			writes++
		}
	}
	return
}

// Binary format. Version 2 (current) is corruption-safe:
//
//	"EDBT"  uvarint(version=2)  uvarint(len(payload))  crc32-IEEE(4B LE)
//	payload...
//
// where the payload is the version-1 body (program, base cycles,
// instret, object table, event stream) and the CRC covers exactly the
// payload bytes. Read verifies the checksum before decoding, bounds
// every count against the bytes that could plausibly back it, and
// reports failures with the absolute byte offset of the offending
// field. Version-1 files (no length/checksum, body streamed directly
// after the version) are still read, as are version-3 columnar
// streaming files (colstore.go). WriteTo emits version 2 by default
// and the columnar format on request.
const (
	magic     = "EDBT"
	version   = 2
	versionV1 = 1

	// maxStringLen caps decoded string lengths.
	maxStringLen = 1 << 20
	// maxAllocCtx caps an object's allocation-context frame count.
	maxAllocCtx = 1 << 12
	// maxObjectSize caps a decoded object's SizeBytes (the simulated
	// machine is 32-bit; nothing larger can exist).
	maxObjectSize = 1 << 32
	// maxPayload caps the version-2 payload length (and therefore the
	// decoder's single allocation).
	maxPayload = 1 << 31
	// maxPrealloc caps count-driven slice preallocation: a version-1
	// stream declares counts before the bytes that back them, so the
	// decoder never trusts a declared count for more than this many
	// entries up front — larger (legitimate) streams grow by append.
	maxPrealloc = 1 << 16

	// minObjectBytes / minEventBytes are the smallest possible encodings
	// of one object-table entry (kind + 2 string lengths + size + ctx
	// count) and one event (kind + 3 uvarints); version-2 count caps are
	// derived from these and the remaining payload bytes.
	minObjectBytes = 5
	minEventBytes  = 4
)

// writeV2 is the version-2 serialisation behind WriteTo: the body is
// encoded to an in-memory payload, checksummed, and written behind a
// length-prefixed header so readers can verify integrity before
// decoding.
func (t *Trace) writeV2(w io.Writer) error {
	if err := fault.Inject(fault.SiteTraceWrite, t.Program); err != nil {
		return fmt.Errorf("trace: writing %s: %w", t.Program, err)
	}
	var body bytes.Buffer
	body.Grow(64 + 8*len(t.Events))
	t.writeBody(&body)
	payload := body.Bytes()
	sum := crc32.ChecksumIEEE(payload)
	// Chaos hook: flip one payload bit *after* the checksum is taken,
	// modelling at-rest corruption that Read must detect.
	fault.Mutate(fault.SiteTraceCorrupt, t.Program, payload)

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(scratch[:], version)
	n += binary.PutUvarint(scratch[n:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(scratch[n:], sum)
	if _, err := bw.Write(scratch[:n+4]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// writeMeta encodes the trace metadata — program, counters, object
// table — shared by the v1/v2 body and the v3 header frame.
func (t *Trace) writeMeta(buf *bytes.Buffer) {
	writeMetaRaw(buf, t.Program, t.BaseCycles, t.Instret, t.Objects)
}

// writeMetaRaw is writeMeta without a Trace value: the incremental
// Writer serialises its header from a live object table and counters.
// bytes.Buffer writes cannot fail, so no errors flow here.
func writeMetaRaw(buf *bytes.Buffer, program string, baseCycles, instret uint64, tab *objects.Table) {
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putString(program)
	putUvarint(baseCycles)
	putUvarint(instret)

	// Object table.
	objs := tab.All()
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
}

// writeBody encodes the version-1/2 trace body into buf: the metadata
// followed by the interleaved event stream.
func (t *Trace) writeBody(buf *bytes.Buffer) {
	t.writeMeta(buf)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}

	// Event stream.
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
}

// decoder reads the trace body while tracking the absolute file offset
// of every field, so malformed input is rejected with a byte-precise
// diagnostic. remaining, when non-negative, bounds how many body bytes
// can still exist (version 2 knows the payload length up front) and is
// used to reject count fields no stream of that size could back.
type decoder struct {
	r   *bufio.Reader
	off int64 // absolute offset of the next unread byte
	// remaining body bytes, or -1 when unknown (version-1 streams).
	remaining int64
}

func (d *decoder) errAt(off int64, format string, args ...any) error {
	return fmt.Errorf("trace: byte offset "+fmt.Sprint(off)+": "+format, args...)
}

func (d *decoder) readByte(what string) (byte, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, d.errAt(d.off, "reading %s: %w", what, noEOF(err))
	}
	d.off++
	if d.remaining >= 0 {
		d.remaining--
	}
	return b, nil
}

func (d *decoder) uvarint(what string) (uint64, error) {
	start := d.off
	var v uint64
	var shift uint
	for {
		b, err := d.r.ReadByte()
		if err != nil {
			return 0, d.errAt(start, "reading %s: %w", what, noEOF(err))
		}
		d.off++
		if d.remaining >= 0 {
			d.remaining--
		}
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, d.errAt(start, "%s: uvarint overflows 64 bits", what)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func (d *decoder) str(what string) (string, error) {
	start := d.off
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", d.errAt(start, "%s length %d exceeds cap %d", what, n, maxStringLen)
	}
	if d.remaining >= 0 && int64(n) > d.remaining {
		return "", d.errAt(start, "%s length %d exceeds %d remaining payload bytes",
			what, n, d.remaining)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", d.errAt(d.off, "reading %s: %w", what, noEOF(err))
	}
	d.off += int64(n)
	if d.remaining >= 0 {
		d.remaining -= int64(n)
	}
	return string(buf), nil
}

// count reads a count field and sanity-checks it: each counted entry
// occupies at least minBytes, so a count no remaining stream could back
// is rejected before any allocation happens.
func (d *decoder) count(what string, minBytes int64) (uint64, error) {
	start := d.off
	n, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if d.remaining >= 0 && int64(n) > d.remaining/minBytes {
		return 0, d.errAt(start,
			"%s %d needs >= %d bytes but only %d payload bytes remain",
			what, n, int64(n)*minBytes, d.remaining)
	}
	return n, nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// structure, running out of bytes is always truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// prealloc bounds a count-driven preallocation.
func prealloc(n uint64) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// Read deserialises a trace written by WriteTo. It reads the
// checksummed version-2 format, legacy version-1 files, and the
// columnar streaming version-3 format (materialised through the block
// reader; use OpenStream to replay v3 without materialising). Malformed
// input — truncation, flipped bits, counts the stream cannot back —
// is rejected with an error naming the byte offset of the offending
// field; version-2 corruption is caught by the payload checksum before
// decoding begins.
func Read(r io.Reader) (*Trace, error) {
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
	switch v {
	case versionV1:
		// Legacy stream: the body follows directly, length unknown.
		return d.readBody()
	case version:
		lenOff := d.off
		plen, err := d.uvarint("payload length")
		if err != nil {
			return nil, err
		}
		if plen > maxPayload {
			return nil, d.errAt(lenOff, "payload length %d exceeds cap %d", plen, maxPayload)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return nil, d.errAt(d.off, "reading checksum: %w", noEOF(err))
		}
		d.off += 4
		want := binary.LittleEndian.Uint32(crcBuf[:])
		// Read the payload through a bounded copy: the declared length is
		// attacker-controlled, so the buffer grows only as bytes actually
		// arrive — a lying length field cannot demand a huge allocation.
		var pbuf bytes.Buffer
		if plen < maxPrealloc {
			pbuf.Grow(int(plen))
		}
		n, err := io.Copy(&pbuf, io.LimitReader(br, int64(plen)))
		if err != nil {
			return nil, d.errAt(d.off+n, "reading payload: %w", noEOF(err))
		}
		if uint64(n) != plen {
			return nil, d.errAt(d.off+n,
				"truncated payload: read %d of %d bytes: %w", n, plen, io.ErrUnexpectedEOF)
		}
		payload := pbuf.Bytes()
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, d.errAt(d.off,
				"payload checksum mismatch: computed %08x, stored %08x (%d payload bytes)",
				got, want, plen)
		}
		pd := &decoder{
			r:         bufio.NewReaderSize(bytes.NewReader(payload), 1<<16),
			off:       d.off,
			remaining: int64(plen),
		}
		t, err := pd.readBody()
		if err != nil {
			return nil, err
		}
		if pd.remaining != 0 {
			return nil, pd.errAt(pd.off, "%d trailing payload bytes after trace body", pd.remaining)
		}
		return t, nil
	case version3:
		// Columnar streaming format: materialise via the block reader
		// (colstore.go), which verifies every frame checksum and the
		// header totals.
		return readV3(d)
	default:
		return nil, fmt.Errorf("trace: byte offset %d: unsupported version %d", len(magic), v)
	}
}

// readBody decodes the version-1/2 trace body: metadata followed by
// the interleaved event stream.
func (d *decoder) readBody() (*Trace, error) {
	t := &Trace{Objects: objects.NewTable()}
	if err := d.readMeta(t); err != nil {
		return nil, err
	}

	nEvents, err := d.count("event count", minEventBytes)
	if err != nil {
		return nil, err
	}
	t.Events = make([]Event, 0, prealloc(nEvents))
	for i := uint64(0); i < nEvents; i++ {
		var e Event
		kindOff := d.off
		kb, err := d.readByte("event kind")
		if err != nil {
			return nil, err
		}
		e.Kind = EventKind(kb)
		if e.Kind > EvWrite {
			return nil, d.errAt(kindOff, "event %d: bad kind %d", i, kb)
		}
		if e.Kind != EvWrite {
			obj, err := d.uvarint("event object")
			if err != nil {
				return nil, err
			}
			e.Obj = objects.ID(obj)
		}
		ba, err := d.uvarint("event base address")
		if err != nil {
			return nil, err
		}
		length, err := d.uvarint("event length")
		if err != nil {
			return nil, err
		}
		e.BA = arch.Addr(ba)
		e.EA = e.BA + arch.Addr(length)
		if e.Kind == EvWrite {
			pc, err := d.uvarint("event pc")
			if err != nil {
				return nil, err
			}
			e.PC = arch.Addr(pc)
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// readMeta decodes the trace metadata (program, counters, object
// table) into t — the shared prefix of the v1/v2 body and the v3
// header frame.
func (d *decoder) readMeta(t *Trace) error {
	var err error
	if t.Program, err = d.str("program name"); err != nil {
		return err
	}
	if t.BaseCycles, err = d.uvarint("base cycles"); err != nil {
		return err
	}
	if t.Instret, err = d.uvarint("instret"); err != nil {
		return err
	}

	nObjs, err := d.count("object count", minObjectBytes)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nObjs; i++ {
		var o objects.Object
		kindOff := d.off
		kb, err := d.readByte("object kind")
		if err != nil {
			return err
		}
		if kb > uint8(objects.KindHeap) {
			return d.errAt(kindOff, "object %d: bad kind %d", i, kb)
		}
		o.Kind = objects.Kind(kb)
		if o.Func, err = d.str("object func"); err != nil {
			return err
		}
		if o.Name, err = d.str("object name"); err != nil {
			return err
		}
		szOff := d.off
		sz, err := d.uvarint("object size")
		if err != nil {
			return err
		}
		if sz > maxObjectSize {
			return d.errAt(szOff, "object %d: size %d exceeds cap %d", i, sz, uint64(maxObjectSize))
		}
		o.SizeBytes = int(sz)
		nCtx, err := d.count("alloc-context count", 1)
		if err != nil {
			return err
		}
		if nCtx > maxAllocCtx {
			return d.errAt(szOff, "object %d: %d alloc-context frames exceeds cap %d",
				i, nCtx, maxAllocCtx)
		}
		for j := uint64(0); j < nCtx; j++ {
			f, err := d.str("alloc-context frame")
			if err != nil {
				return err
			}
			o.AllocCtx = append(o.AllocCtx, f)
		}
		t.Objects.Add(o)
	}
	return nil
}

// WriteText renders the trace human-readably, one event per line.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace %s base_cycles=%d instret=%d objects=%d events=%d\n",
		t.Program, t.BaseCycles, t.Instret, t.Objects.Len(), len(t.Events))
	for _, o := range t.Objects.All() {
		fmt.Fprintf(bw, "obj %d %s func=%q name=%q size=%d ctx=%v\n",
			o.ID, o.Kind, o.Func, o.Name, o.SizeBytes, o.AllocCtx)
	}
	for _, e := range t.Events {
		switch e.Kind {
		case EvWrite:
			fmt.Fprintf(bw, "write %#x..%#x pc=%#x\n", uint32(e.BA), uint32(e.EA), uint32(e.PC))
		default:
			fmt.Fprintf(bw, "%s obj=%d %#x..%#x\n", e.Kind, e.Obj, uint32(e.BA), uint32(e.EA))
		}
	}
	return bw.Flush()
}

// Validate checks internal consistency: object references resolve,
// ranges are well-formed and word-aligned, and removes match installs.
func (t *Trace) Validate() error {
	active := make(map[objects.ID]int)
	for i, e := range t.Events {
		if e.EA <= e.BA {
			return fmt.Errorf("trace: event %d has empty range %v..%v", i, e.BA, e.EA)
		}
		if !arch.Aligned(e.BA) {
			return fmt.Errorf("trace: event %d range not word aligned", i)
		}
		switch e.Kind {
		case EvInstall, EvRemove:
			if _, ok := t.Objects.Get(e.Obj); !ok {
				return fmt.Errorf("trace: event %d references unknown object %d", i, e.Obj)
			}
			if e.Kind == EvInstall {
				active[e.Obj]++
			} else {
				active[e.Obj]--
				if active[e.Obj] < 0 {
					return fmt.Errorf("trace: event %d removes never-installed object %d", i, e.Obj)
				}
			}
		}
	}
	for id, n := range active {
		if n != 0 {
			return fmt.Errorf("trace: object %d left with %d active installs", id, n)
		}
	}
	return nil
}

// ValidateExclusive additionally checks the exclusivity invariant the
// phase-2 simulator relies on: at any instant, each word of memory is
// covered by at most one live object. Real traces satisfy this by
// construction (frames nest, heap blocks are disjoint, globals are laid
// out without overlap); this check exists for synthetic traces.
func (t *Trace) ValidateExclusive() error {
	owner := make(map[arch.Addr]objects.ID)
	for i, e := range t.Events {
		switch e.Kind {
		case EvInstall:
			for a := e.BA; a < e.EA; a += arch.WordBytes {
				if prev, taken := owner[a]; taken && prev != e.Obj {
					return fmt.Errorf("trace: event %d: word %#x owned by both object %d and %d",
						i, uint32(a), prev, e.Obj)
				}
				owner[a] = e.Obj
			}
		case EvRemove:
			for a := e.BA; a < e.EA; a += arch.WordBytes {
				delete(owner, a)
			}
		}
	}
	return nil
}
