// Package arch defines the primitive machine types shared by every layer
// of the simulated SPARCstation-2-class target: addresses, words, page
// arithmetic, and the canonical address-space layout.
//
// The simulated machine is a 32-bit, byte-addressed, word-aligned RISC.
// All loads and stores move one 32-bit word and must be 4-byte aligned,
// which mirrors the paper's restriction of write monitors to word-aligned
// boundaries (Appendix A.5, footnote 7).
package arch

import "fmt"

// Addr is a 32-bit virtual address in the simulated machine.
type Addr uint32

// Word is the machine word: 32 bits, the unit of every load and store.
type Word uint32

// WordBytes is the size of a machine word in bytes.
const WordBytes = 4

// Clock of the simulated machine. The paper's testbed is a 40 MHz
// SPARCstation 2; overheads are reported relative to wall-clock time, so
// the simulator converts cycles to seconds at this rate.
const ClockHz = 40_000_000

// Page sizes studied by the paper's VirtualMemory strategy.
const (
	PageSize4K = 4096
	PageSize8K = 8192
)

// Address-space layout. One flat space per debuggee, carved into
// segments. Sizes are generous for the scaled workloads and keep segment
// arithmetic trivial (each segment is a power-of-two region).
const (
	// TextBase is where program code is loaded.
	TextBase Addr = 0x0000_1000
	// TextLimit bounds the text segment (4 MiB of code).
	TextLimit Addr = 0x0040_0000

	// GlobalBase is where globals and function statics are laid out.
	GlobalBase Addr = 0x0040_0000
	// GlobalLimit bounds the global segment (12 MiB).
	GlobalLimit Addr = 0x0100_0000

	// HeapBase is the bottom of the simulated heap.
	HeapBase Addr = 0x0100_0000
	// HeapLimit bounds the heap segment (48 MiB).
	HeapLimit Addr = 0x0400_0000

	// StackBase is the *top* of the downward-growing stack.
	StackBase Addr = 0x0500_0000
	// StackLimit is the lowest address the stack may reach (16 MiB deep).
	StackLimit Addr = 0x0400_0000
)

// Aligned reports whether a is word-aligned.
func Aligned(a Addr) bool { return a%WordBytes == 0 }

// AlignUp rounds a up to the next multiple of align (a power of two).
func AlignUp(a Addr, align Addr) Addr { return (a + align - 1) &^ (align - 1) }

// AlignDown rounds a down to a multiple of align (a power of two).
func AlignDown(a Addr, align Addr) Addr { return a &^ (align - 1) }

// PageNum returns the page number of a for the given page size.
func PageNum(a Addr, pageSize int) uint32 { return uint32(a) / uint32(pageSize) }

// PageBase returns the base address of the page containing a.
func PageBase(a Addr, pageSize int) Addr { return a &^ (Addr(pageSize) - 1) }

// PagesSpanned returns the page numbers [first,last] covered by the
// half-open byte range [ba, ea). An empty range spans no pages and
// returns first > last.
func PagesSpanned(ba, ea Addr, pageSize int) (first, last uint32) {
	if ea <= ba {
		return 1, 0
	}
	return PageNum(ba, pageSize), PageNum(ea-1, pageSize)
}

// Segment identifies which region of the address space an address falls in.
type Segment int

// Segments of the simulated address space.
const (
	SegNone Segment = iota
	SegText
	SegGlobal
	SegHeap
	SegStack
)

// String returns the conventional name of the segment.
func (s Segment) String() string {
	switch s {
	case SegText:
		return "text"
	case SegGlobal:
		return "global"
	case SegHeap:
		return "heap"
	case SegStack:
		return "stack"
	default:
		return "none"
	}
}

// TextWord returns the index of the text word at a, counted from
// TextBase, and whether a is a word-aligned address in the text
// segment.
func TextWord(a Addr) (int, bool) {
	off := uint32(a - TextBase)
	return int(off / WordBytes), off%WordBytes == 0 && off < uint32(TextLimit-TextBase)
}

// SegmentOf classifies an address.
func SegmentOf(a Addr) Segment {
	switch {
	case a >= TextBase && a < TextLimit:
		return SegText
	case a >= GlobalBase && a < GlobalLimit:
		return SegGlobal
	case a >= HeapBase && a < HeapLimit:
		return SegHeap
	case a >= StackLimit && a < StackBase:
		return SegStack
	default:
		return SegNone
	}
}

// Range is a half-open region of the address space [BA, EA).
// The paper's WMS interface describes monitors with a beginning and
// ending address; Range is that descriptor.
type Range struct {
	BA Addr // beginning address, inclusive
	EA Addr // ending address, exclusive
}

// Len returns the size of the range in bytes.
func (r Range) Len() int {
	if r.EA <= r.BA {
		return 0
	}
	return int(r.EA - r.BA)
}

// Empty reports whether the range contains no bytes.
func (r Range) Empty() bool { return r.EA <= r.BA }

// Contains reports whether address a lies inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.BA && a < r.EA }

// Overlaps reports whether the two ranges share any byte.
func (r Range) Overlaps(o Range) bool {
	return !r.Empty() && !o.Empty() && r.BA < o.EA && o.BA < r.EA
}

// Words returns the number of whole words in the range.
func (r Range) Words() int { return r.Len() / WordBytes }

// String renders the range as [ba,ea).
func (r Range) String() string { return fmt.Sprintf("[%#x,%#x)", uint32(r.BA), uint32(r.EA)) }

// CyclesToSeconds converts simulated cycles to seconds of simulated time.
func CyclesToSeconds(cycles uint64) float64 { return float64(cycles) / ClockHz }

// MicrosToCycles converts microseconds of simulated time to cycles.
// Timing variables in the paper (Table 2) are given in microseconds; the
// kernel's cost model charges them to the cycle clock through this
// conversion.
func MicrosToCycles(us float64) uint64 { return uint64(us * ClockHz / 1e6) }
