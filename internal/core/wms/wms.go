// Package wms implements the paper's write monitor service (WMS): the
// low-level substrate for data breakpoints. The interface is the one
// defined in §2 of the paper:
//
//	InstallMonitor(BA, EA)        — install a new write monitor
//	RemoveMonitor(BA, EA)         — remove an existing write monitor
//	MonitorNotification(BA, EA, PC) — delivered for each monitor hit
//
// Three of the paper's four strategies (VirtualMemory, TrapPatch,
// CodePatch) share one software mapping from virtual addresses to active
// write monitors; this package provides that mapping. The production
// structure is the one the paper times in Appendix A.5: a hash table
// keyed by page number whose entries are bitmaps with one bit per word
// of the page (restricting monitors to word-aligned boundaries, which
// higher-level clients compensate for). Two simpler structures — a
// sorted interval list and a naive scan — serve as oracles and ablation
// baselines.
package wms

import (
	"fmt"

	"edb/internal/arch"
)

// Index is the address → active-monitor mapping shared by the software
// strategies.
type Index interface {
	// Install marks [ba, ea) as monitored. Overlapping installs nest:
	// a word stays monitored until every install covering it has been
	// removed.
	Install(ba, ea arch.Addr)
	// Remove undoes one prior Install of exactly [ba, ea).
	Remove(ba, ea arch.Addr)
	// Lookup reports whether any word of [ba, ea) is monitored. This is
	// the operation on the hot path of every checked store
	// (SoftwareLookup in the paper's timing model).
	Lookup(ba, ea arch.Addr) bool
	// ActiveWords returns the number of monitored words counted with
	// multiplicity (nested covers count once each); diagnostics and
	// invariant checks.
	ActiveWords() int
}

// ---------------------------------------------------------------------
// PageBitmap: the paper's Appendix A.5 structure.
// ---------------------------------------------------------------------

const (
	bmPageShift = 12 // bitmap bucketing uses 4 KiB pages
	bmPageSize  = 1 << bmPageShift
	bmPageWords = bmPageSize / arch.WordBytes
	bmUint64s   = bmPageWords / 64
)

type pageBits struct {
	bits [bmUint64s]uint64
	// overflow counts words covered by more than one active monitor;
	// the bitmap alone cannot express nesting.
	overflow map[uint16]uint16
	set      int // number of set bits, for cheap page-empty detection
}

// PageBitmap maps page number → per-word bitmap via a hash table
// (Go map). Lookup touches at most two pages for a word-sized write.
type PageBitmap struct {
	pages  map[uint32]*pageBits
	active int
}

// NewPageBitmap returns an empty page-bitmap index.
func NewPageBitmap() *PageBitmap {
	return &PageBitmap{pages: make(map[uint32]*pageBits)}
}

func (p *PageBitmap) forEachWord(ba, ea arch.Addr, f func(pg *pageBits, page uint32, wordIdx uint16)) {
	ba = arch.AlignDown(ba, arch.WordBytes)
	ea = arch.AlignUp(ea, arch.WordBytes)
	for a := ba; a < ea; a += arch.WordBytes {
		page := uint32(a) >> bmPageShift
		pg := p.pages[page]
		if pg == nil {
			pg = &pageBits{}
			p.pages[page] = pg
		}
		f(pg, page, uint16((a%bmPageSize)/arch.WordBytes))
	}
}

// Install implements Index.
func (p *PageBitmap) Install(ba, ea arch.Addr) {
	p.forEachWord(ba, ea, func(pg *pageBits, page uint32, w uint16) {
		mask := uint64(1) << (w % 64)
		if pg.bits[w/64]&mask != 0 {
			// Already set: record the extra cover in the overflow table.
			if pg.overflow == nil {
				pg.overflow = make(map[uint16]uint16)
			}
			pg.overflow[w]++
		} else {
			pg.bits[w/64] |= mask
			pg.set++
		}
		p.active++
	})
}

// Remove implements Index.
func (p *PageBitmap) Remove(ba, ea arch.Addr) {
	ba = arch.AlignDown(ba, arch.WordBytes)
	ea = arch.AlignUp(ea, arch.WordBytes)
	for a := ba; a < ea; a += arch.WordBytes {
		page := uint32(a) >> bmPageShift
		pg := p.pages[page]
		if pg == nil {
			continue // remove of never-installed range: no-op
		}
		w := uint16((a % bmPageSize) / arch.WordBytes)
		mask := uint64(1) << (w % 64)
		if pg.bits[w/64]&mask == 0 {
			continue
		}
		if n := pg.overflow[w]; n > 0 {
			if n == 1 {
				delete(pg.overflow, w)
			} else {
				pg.overflow[w] = n - 1
			}
			p.active--
			continue
		}
		pg.bits[w/64] &^= mask
		pg.set--
		p.active--
		if pg.set == 0 {
			delete(p.pages, page)
		}
	}
}

// Lookup implements Index.
func (p *PageBitmap) Lookup(ba, ea arch.Addr) bool {
	ba = arch.AlignDown(ba, arch.WordBytes)
	ea = arch.AlignUp(ea, arch.WordBytes)
	for a := ba; a < ea; a += arch.WordBytes {
		pg := p.pages[uint32(a)>>bmPageShift]
		if pg == nil {
			// Skip ahead to the next page boundary.
			next := arch.PageBase(a, bmPageSize) + bmPageSize
			if next <= a {
				break
			}
			a = next - arch.WordBytes
			continue
		}
		w := (a % bmPageSize) / arch.WordBytes
		if pg.bits[w/64]&(uint64(1)<<(w%64)) != 0 {
			return true
		}
	}
	return false
}

// ActiveWords implements Index.
func (p *PageBitmap) ActiveWords() int { return p.active }

// ---------------------------------------------------------------------
// IntervalIndex: sorted list of installed ranges (ablation baseline).
// ---------------------------------------------------------------------

// IntervalIndex keeps every installed range in a slice ordered by BA and
// answers lookups by binary search plus local scan. O(log n + k) lookup,
// O(n) install/remove; competitive for small monitor counts.
type IntervalIndex struct {
	ranges []arch.Range // sorted by BA; duplicates allowed
	words  int
}

// NewIntervalIndex returns an empty interval index.
func NewIntervalIndex() *IntervalIndex { return &IntervalIndex{} }

// Install implements Index.
func (x *IntervalIndex) Install(ba, ea arch.Addr) {
	r := arch.Range{BA: arch.AlignDown(ba, arch.WordBytes), EA: arch.AlignUp(ea, arch.WordBytes)}
	if r.Empty() {
		return
	}
	i := x.search(r.BA)
	x.ranges = append(x.ranges, arch.Range{})
	copy(x.ranges[i+1:], x.ranges[i:])
	x.ranges[i] = r
	x.words += r.Words()
}

// Remove implements Index.
func (x *IntervalIndex) Remove(ba, ea arch.Addr) {
	r := arch.Range{BA: arch.AlignDown(ba, arch.WordBytes), EA: arch.AlignUp(ea, arch.WordBytes)}
	for i := x.search(r.BA); i < len(x.ranges) && x.ranges[i].BA == r.BA; i++ {
		if x.ranges[i] == r {
			x.ranges = append(x.ranges[:i], x.ranges[i+1:]...)
			x.words -= r.Words()
			return
		}
	}
}

// Lookup implements Index.
func (x *IntervalIndex) Lookup(ba, ea arch.Addr) bool {
	q := arch.Range{BA: arch.AlignDown(ba, arch.WordBytes), EA: arch.AlignUp(ea, arch.WordBytes)}
	// Scan backwards from the first range starting at or after q.EA.
	i := x.search(q.EA)
	for j := i - 1; j >= 0; j-- {
		if x.ranges[j].Overlaps(q) {
			return true
		}
		// Ranges are sorted by BA but have arbitrary EA, so we cannot
		// stop at the first non-overlap in general; track the furthest
		// possible reach instead. For monitor workloads ranges are
		// small, so a bounded scan with an early exit on distance works.
		if q.BA >= x.ranges[j].BA && q.BA-x.ranges[j].BA > maxMonitorSpan {
			break
		}
	}
	return false
}

// maxMonitorSpan bounds how far back the interval lookup scans; monitors
// larger than this are not supported by IntervalIndex (the page bitmap
// has no such limit).
const maxMonitorSpan = 1 << 24

// ActiveWords implements Index.
func (x *IntervalIndex) ActiveWords() int { return x.words }

func (x *IntervalIndex) search(a arch.Addr) int {
	lo, hi := 0, len(x.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if x.ranges[mid].BA < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ---------------------------------------------------------------------
// NaiveIndex: linear scan oracle.
// ---------------------------------------------------------------------

// NaiveIndex is the obviously-correct reference implementation used by
// property tests and as the ablation worst case.
type NaiveIndex struct {
	ranges []arch.Range
}

// NewNaiveIndex returns an empty naive index.
func NewNaiveIndex() *NaiveIndex { return &NaiveIndex{} }

// Install implements Index.
func (x *NaiveIndex) Install(ba, ea arch.Addr) {
	r := arch.Range{BA: arch.AlignDown(ba, arch.WordBytes), EA: arch.AlignUp(ea, arch.WordBytes)}
	if !r.Empty() {
		x.ranges = append(x.ranges, r)
	}
}

// Remove implements Index.
func (x *NaiveIndex) Remove(ba, ea arch.Addr) {
	r := arch.Range{BA: arch.AlignDown(ba, arch.WordBytes), EA: arch.AlignUp(ea, arch.WordBytes)}
	for i := range x.ranges {
		if x.ranges[i] == r {
			x.ranges = append(x.ranges[:i], x.ranges[i+1:]...)
			return
		}
	}
}

// Lookup implements Index.
func (x *NaiveIndex) Lookup(ba, ea arch.Addr) bool {
	q := arch.Range{BA: arch.AlignDown(ba, arch.WordBytes), EA: arch.AlignUp(ea, arch.WordBytes)}
	for _, r := range x.ranges {
		if r.Overlaps(q) {
			return true
		}
	}
	return false
}

// ActiveWords implements Index.
func (x *NaiveIndex) ActiveWords() int {
	n := 0
	for _, r := range x.ranges {
		n += r.Words()
	}
	return n
}

// ---------------------------------------------------------------------
// Service: the WMS proper.
// ---------------------------------------------------------------------

// Notification is a monitor hit, as delivered to MonitorNotification:
// the written range and the program counter of the writing instruction.
type Notification struct {
	BA, EA arch.Addr
	PC     arch.Addr
}

// Notifier receives monitor notifications.
type Notifier func(n Notification)

// Stats counts WMS activity; these are the paper's shared counting
// variables (Figure 2).
type Stats struct {
	Installs uint64 // InstallMonitor_σ
	Removes  uint64 // RemoveMonitor_σ
	Hits     uint64 // MonitorHit_σ
	Misses   uint64 // MonitorMiss_σ
}

// Service is the strategy-independent WMS core: the software mapping
// plus notification dispatch and counting.
type Service struct {
	idx    Index
	notify Notifier
	stats  Stats
}

// NewService builds a WMS over the given index. A nil index selects the
// production PageBitmap.
func NewService(idx Index, notify Notifier) *Service {
	if idx == nil {
		idx = NewPageBitmap()
	}
	return &Service{idx: idx, notify: notify}
}

// InstallMonitor installs a write monitor over [ba, ea).
func (s *Service) InstallMonitor(ba, ea arch.Addr) error {
	if ea <= ba {
		return fmt.Errorf("wms: empty monitor range [%#x,%#x)", uint32(ba), uint32(ea))
	}
	s.idx.Install(ba, ea)
	s.stats.Installs++
	return nil
}

// RemoveMonitor removes a previously installed monitor.
func (s *Service) RemoveMonitor(ba, ea arch.Addr) error {
	if ea <= ba {
		return fmt.Errorf("wms: empty monitor range [%#x,%#x)", uint32(ba), uint32(ea))
	}
	s.idx.Remove(ba, ea)
	s.stats.Removes++
	return nil
}

// CheckWrite is the per-store check: it classifies the write as hit or
// miss, dispatches MonitorNotification on hits, and returns whether the
// write hit.
func (s *Service) CheckWrite(ba, ea, pc arch.Addr) bool {
	if s.idx.Lookup(ba, ea) {
		s.stats.Hits++
		if s.notify != nil {
			s.notify(Notification{BA: ba, EA: ea, PC: pc})
		}
		return true
	}
	s.stats.Misses++
	return false
}

// Lookup exposes the raw index query without counting (used by fault
// handlers that account hits separately).
func (s *Service) Lookup(ba, ea arch.Addr) bool { return s.idx.Lookup(ba, ea) }

// Stats returns a copy of the activity counters.
func (s *Service) Stats() Stats { return s.stats }

// Index returns the underlying mapping (diagnostics).
func (s *Service) Index() Index { return s.idx }
