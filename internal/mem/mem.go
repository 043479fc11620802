// Package mem implements the simulated machine's physical memory and
// MMU. Memory is a flat 32-bit space backed by demand-allocated 4 KiB
// frames, with per-page protection bits. The VirtualMemory strategy of
// the paper relies on exactly this mechanism: it write-protects the
// pages that hold active write monitors and catches the resulting
// faults.
//
// Protection is tracked at 4 KiB granularity internally; an MMU
// configured with an 8 KiB page size applies protections to both 4 KiB
// sub-frames of each page, so both of the paper's page sizes are
// supported by one implementation.
package mem

import (
	"fmt"

	"edb/internal/arch"
)

// Prot is a page-protection bit set.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// ProtRW is the default protection of data pages.
const ProtRW = ProtRead | ProtWrite

// String renders the protection like "rw-".
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind distinguishes the kinds of memory access for fault reporting.
type AccessKind int

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessFetch
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "fetch"
	}
}

// FaultKind classifies memory faults.
type FaultKind int

// Fault kinds.
const (
	// FaultProtection: access violated the page protection (the fault the
	// VirtualMemory WMS traffics in).
	FaultProtection FaultKind = iota
	// FaultUnmapped: access outside any segment.
	FaultUnmapped
	// FaultAlignment: access not word-aligned.
	FaultAlignment
)

// Fault describes a memory fault. It implements error.
type Fault struct {
	Kind   FaultKind
	Access AccessKind
	Addr   arch.Addr
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "protection"
	switch f.Kind {
	case FaultUnmapped:
		kind = "unmapped"
	case FaultAlignment:
		kind = "alignment"
	}
	return fmt.Sprintf("%s fault: %s at %#x", kind, f.Access, uint32(f.Addr))
}

const (
	frameShift = 12 // 4 KiB internal frames
	frameSize  = 1 << frameShift
	frameWords = frameSize / arch.WordBytes
)

// numFrames covers the whole usable address space [0, StackBase).
const numFrames = int(arch.StackBase) >> frameShift

type frame [frameWords]arch.Word

// Memory is the simulated physical memory plus MMU state.
//
// Methods are not safe for concurrent use; the simulated machine is
// single-threaded, like the paper's.
type Memory struct {
	frames   []*frame
	prots    []Prot
	pageSize int // MMU page size for mprotect granularity (4K or 8K)

	// OnTextChange, when set, is told of every change to the text
	// segment: each word written there, by any path, and each
	// protection change overlapping it, as the half-open range
	// [ba, ea) clipped to text. The CPU's predecoded instructions hang
	// their invalidation here, so no writer of code has to know the
	// CPU keeps decoded copies.
	OnTextChange func(ba, ea arch.Addr)
}

// New returns a memory with the given MMU page size (PageSize4K or
// PageSize8K). All mapped segments start readable and writable; the
// loader marks text pages read+exec.
func New(pageSize int) *Memory {
	if pageSize != arch.PageSize4K && pageSize != arch.PageSize8K {
		panic(fmt.Sprintf("mem: unsupported page size %d", pageSize))
	}
	m := &Memory{
		frames:   make([]*frame, numFrames),
		prots:    make([]Prot, numFrames),
		pageSize: pageSize,
	}
	for i := range m.prots {
		m.prots[i] = ProtRW
	}
	return m
}

// PageSize returns the MMU page size.
func (m *Memory) PageSize() int { return m.pageSize }

func (m *Memory) frameOf(a arch.Addr, alloc bool) *frame {
	idx := int(a >> frameShift)
	if idx >= numFrames {
		return nil
	}
	f := m.frames[idx]
	if f == nil && alloc {
		f = new(frame)
		m.frames[idx] = f
	}
	return f
}

func (m *Memory) check(a arch.Addr, kind AccessKind) *Fault {
	if !arch.Aligned(a) {
		return &Fault{Kind: FaultAlignment, Access: kind, Addr: a}
	}
	if arch.SegmentOf(a) == arch.SegNone {
		return &Fault{Kind: FaultUnmapped, Access: kind, Addr: a}
	}
	p := m.prots[a>>frameShift]
	switch kind {
	case AccessRead:
		if p&ProtRead == 0 {
			return &Fault{Kind: FaultProtection, Access: kind, Addr: a}
		}
	case AccessWrite:
		if p&ProtWrite == 0 {
			return &Fault{Kind: FaultProtection, Access: kind, Addr: a}
		}
	case AccessFetch:
		if p&ProtExec == 0 {
			return &Fault{Kind: FaultProtection, Access: kind, Addr: a}
		}
	}
	return nil
}

// ReadWord loads the word at a, honouring page protections.
func (m *Memory) ReadWord(a arch.Addr) (arch.Word, error) {
	if f := m.check(a, AccessRead); f != nil {
		return 0, f
	}
	return m.readRaw(a), nil
}

// WriteWord stores w at a, honouring page protections.
func (m *Memory) WriteWord(a arch.Addr, w arch.Word) error {
	if f := m.check(a, AccessWrite); f != nil {
		return f
	}
	m.writeRaw(a, w)
	return nil
}

// FetchWord reads an instruction word at a, honouring execute protection.
func (m *Memory) FetchWord(a arch.Addr) (arch.Word, error) {
	if f := m.check(a, AccessFetch); f != nil {
		return 0, f
	}
	return m.readRaw(a), nil
}

// KernelReadWord loads a word bypassing protection (kernel privilege).
// Alignment and mapping are still enforced.
func (m *Memory) KernelReadWord(a arch.Addr) (arch.Word, error) {
	if !arch.Aligned(a) {
		return 0, &Fault{Kind: FaultAlignment, Access: AccessRead, Addr: a}
	}
	if arch.SegmentOf(a) == arch.SegNone {
		return 0, &Fault{Kind: FaultUnmapped, Access: AccessRead, Addr: a}
	}
	return m.readRaw(a), nil
}

// KernelWriteWord stores a word bypassing protection (kernel privilege,
// used by fault handlers to emulate faulting stores and by patchers to
// rewrite text).
func (m *Memory) KernelWriteWord(a arch.Addr, w arch.Word) error {
	if !arch.Aligned(a) {
		return &Fault{Kind: FaultAlignment, Access: AccessWrite, Addr: a}
	}
	if arch.SegmentOf(a) == arch.SegNone {
		return &Fault{Kind: FaultUnmapped, Access: AccessWrite, Addr: a}
	}
	m.writeRaw(a, w)
	return nil
}

func (m *Memory) readRaw(a arch.Addr) arch.Word {
	f := m.frameOf(a, false)
	if f == nil {
		return 0 // untouched memory reads as zero
	}
	return f[(a%frameSize)/arch.WordBytes]
}

func (m *Memory) writeRaw(a arch.Addr, w arch.Word) {
	f := m.frameOf(a, true)
	f[(a%frameSize)/arch.WordBytes] = w
	if a < arch.TextLimit && a >= arch.TextBase && m.OnTextChange != nil {
		m.OnTextChange(a, a+arch.WordBytes)
	}
}

// Protect sets the protection of every MMU page overlapping [ba, ea).
// This is the simulated mprotect; like the real call it operates on
// whole pages of the configured page size.
func (m *Memory) Protect(ba, ea arch.Addr, p Prot) {
	if ea <= ba {
		return
	}
	first := arch.AlignDown(ba, arch.Addr(m.pageSize))
	var page arch.Addr
	for page = first; page < ea; page += arch.Addr(m.pageSize) {
		for sub := page; sub < page+arch.Addr(m.pageSize); sub += frameSize {
			idx := int(sub >> frameShift)
			if idx < numFrames {
				m.prots[idx] = p
			}
		}
	}
	// page now ends the last page changed.
	if lo, hi := max(first, arch.TextBase), min(page, arch.TextLimit); lo < hi && m.OnTextChange != nil {
		m.OnTextChange(lo, hi)
	}
}

// ProtAt returns the protection of the page containing a.
func (m *Memory) ProtAt(a arch.Addr) Prot {
	idx := int(a >> frameShift)
	if idx >= numFrames {
		return 0
	}
	return m.prots[idx]
}
