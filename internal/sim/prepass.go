package sim

import (
	"fmt"

	"edb/internal/arch"
	"edb/internal/objects"
	"edb/internal/trace"
)

// Prepass is the immutable, session-independent index a replay engine
// consumes instead of hashing raw addresses per event. It is computed
// once per trace (sim.Prepare) and can then be shared — concurrently
// and across runs — by any number of replays and timing-profile
// sweeps (internal/exp caches it next to the trace in the
// per-(benchmark, scale) artifact cache).
//
// Three indexes are precomputed:
//
//   - Per-object event counts: the installs, the removes and the writes
//     resolved to each object (a write resolves to the object whose
//     live monitor it hits). Resolution is the only part of a replay
//     that needs the global word → object map, and none of it depends
//     on a session, so a replay credits every member session once per
//     object instead of once per event and never touches word state.
//
//   - A dense page remap per simulated page size: the set of pages ever
//     spanned by an install or remove event is compacted to indexes
//     [0, NumPages), assigned in ascending page-number order. Because
//     every page inside one event's span is by definition touched, an
//     event's span maps to *consecutive* dense indexes. Engines replace
//     map[pageNumber] hashing with dense-slice indexing sized exactly
//     NumPages; a write's evPage entries hold the dense index of the
//     written page per page size (or -1 when no monitor ever touches
//     that page, which lets replay skip the page entirely).
//
//   - Placements: every distinct (object, 4 KiB page span) pair of an
//     install or remove, numbered in order of first appearance. The
//     8 KiB span follows from the 4 KiB one, so a placement needs no
//     session to be defined. An install or remove stores its placement
//     id in evPage[0] and its kind (evInstall or evRemove) in evPage[1],
//     so replay reads the two columns and nothing of the trace itself.
type Prepass struct {
	// TotalWrites is the number of write events in the trace.
	TotalWrites uint64
	// NumPages[psi] is the number of distinct pages (page size
	// PageSizes[psi]) spanned by at least one install/remove event.
	NumPages [2]int32

	// evPage[psi][i] describes event i, indexed like PageSizes; see
	// above.
	evPage     [2][]int32
	placements []placement
	// objs[id] counts object id's events; index 0 is unused.
	objs []objCount
}

// The evPage[1] entries of installs and removes. A write's entry is a
// dense page or -1, so both markers are out of its range.
const (
	evInstall int32 = -2
	evRemove  int32 = -3
)

// placement is one (object, 4 KiB page span) pair: the object and, per
// page size, the first dense page and the number of pages spanned.
type placement struct {
	obj   objects.ID
	page  [2]int32
	n     [2]int32
	older int32 // the object's previous placement + 1, 0 ends; Prepare's lookup chain
}

// objCount is one object's event counts.
type objCount struct {
	installs, removes, hits uint64
}

// Events returns the number of trace events the prepass was built
// over, for mismatch checks.
func (pp *Prepass) Events() int { return len(pp.evPage[0]) }

// pageRemap is the prepass-internal raw→dense page index map for one
// page size: a dense int32 table over [minPage, maxPage] of the pages
// touched by install/remove events. The simulated machine's segments
// span a few tens of thousands of pages at most, so the table is small
// (4 B per page of address-space range) and lookups are one bounds
// check and one array index — no hashing.
type pageRemap struct {
	minPage uint32
	table   []int32 // dense index, or -1 for untouched pages
}

func (m *pageRemap) lookup(pn uint32) int32 {
	if pn < m.minPage || pn >= m.minPage+uint32(len(m.table)) {
		return -1
	}
	return m.table[pn-m.minPage]
}

// Prepare computes the trace prepass. It validates event kinds (the
// only structural validation replay needs) and otherwise assumes a
// well-formed trace as produced by the tracer or trace.Read.
func Prepare(tr *trace.Trace) (*Prepass, error) {
	nEv := len(tr.Events)
	pp := &Prepass{}

	// Pass 1: validate kinds, find each page size's touched range and
	// the largest object ID an install or remove names.
	var minP, maxP [2]uint32
	var maxObj objects.ID
	touched := false
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.EvInstall, trace.EvRemove:
			maxObj = max(maxObj, e.Obj)
			for psi, psz := range PageSizes {
				first, last := arch.PagesSpanned(e.BA, e.EA, psz)
				if first > last {
					continue // empty range; Validate rejects these
				}
				if !touched || first < minP[psi] {
					minP[psi] = first
				}
				if !touched || last > maxP[psi] {
					maxP[psi] = last
				}
			}
			touched = true
		case trace.EvWrite:
		default:
			return nil, fmt.Errorf("sim: unknown event kind %d", e.Kind)
		}
	}

	// Pass 2: mark touched pages, then assign dense indexes in
	// ascending page order so one event's span is always consecutive.
	var remap [2]pageRemap
	for psi := range remap {
		if !touched {
			continue
		}
		remap[psi].minPage = minP[psi]
		remap[psi].table = make([]int32, maxP[psi]-minP[psi]+1)
	}
	if touched {
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.Kind != trace.EvInstall && e.Kind != trace.EvRemove {
				continue
			}
			for psi, psz := range PageSizes {
				first, last := arch.PagesSpanned(e.BA, e.EA, psz)
				for pn := first; pn <= last; pn++ {
					remap[psi].table[pn-minP[psi]] = 1
				}
			}
		}
		for psi := range remap {
			n := int32(0)
			for k, v := range remap[psi].table {
				if v == 0 {
					remap[psi].table[k] = -1
					continue
				}
				remap[psi].table[k] = n
				n++
			}
			pp.NumPages[psi] = n
		}
	}

	// Pass 3: the per-event columns, the placements and the per-object
	// counts, resolving writes over a flat word table indexed by (dense
	// 4 KiB page, word-in-page).
	for psi := range pp.evPage {
		pp.evPage[psi] = make([]int32, nEv)
	}
	pp.objs = make([]objCount, maxObj+1)
	// An object's placements are about one per object, so maxObj is
	// the capacity that avoids growing the slice on real traces.
	pp.placements = make([]placement, 0, maxObj)
	newest := make([]int32, maxObj+1) // by object: newest placement + 1
	words := make([]objects.ID, int(pp.NumPages[0])*wordsPerPage)
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.EvInstall:
			pp.evPage[0][i] = pp.place(e, &remap, newest)
			pp.evPage[1][i] = evInstall
			pp.objs[e.Obj].installs++
			for a := e.BA; a < e.EA; a += arch.WordBytes {
				dp := remap[0].lookup(uint32(a) >> 12)
				words[int(dp)*wordsPerPage+int(a%4096)/4] = e.Obj
			}
		case trace.EvRemove:
			pp.evPage[0][i] = pp.place(e, &remap, newest)
			pp.evPage[1][i] = evRemove
			pp.objs[e.Obj].removes++
			for a := e.BA; a < e.EA; a += arch.WordBytes {
				dp := remap[0].lookup(uint32(a) >> 12)
				idx := int(dp)*wordsPerPage + int(a%4096)/4
				if words[idx] == e.Obj {
					words[idx] = 0
				}
			}
		case trace.EvWrite:
			pp.TotalWrites++
			dp4 := remap[0].lookup(uint32(e.BA) >> 12)
			pp.evPage[0][i] = dp4
			pp.evPage[1][i] = remap[1].lookup(uint32(e.BA) >> 13)
			if dp4 >= 0 {
				if obj := words[int(dp4)*wordsPerPage+int(e.BA%4096)/4]; obj != 0 {
					pp.objs[obj].hits++
				}
			}
		}
	}
	return pp, nil
}

// place returns the placement id of install/remove e, appending a
// placement the first time e's object appears on e's 4 KiB page span.
// newest chains each object's placements, newest first.
func (pp *Prepass) place(e *trace.Event, remap *[2]pageRemap, newest []int32) int32 {
	var page, n int32 // 4 KiB span; an empty range spans no page
	if first, last := arch.PagesSpanned(e.BA, e.EA, arch.PageSize4K); first <= last {
		page, n = remap[0].lookup(first), int32(last-first+1)
	}
	for k := newest[e.Obj]; k != 0; k = pp.placements[k-1].older {
		if pl := &pp.placements[k-1]; pl.page[0] == page && pl.n[0] == n {
			return k - 1
		}
	}
	pl := placement{obj: e.Obj, page: [2]int32{page}, n: [2]int32{n}, older: newest[e.Obj]}
	if first, last := arch.PagesSpanned(e.BA, e.EA, arch.PageSize8K); first <= last {
		pl.page[1], pl.n[1] = remap[1].lookup(first), int32(last-first+1)
	}
	pp.placements = append(pp.placements, pl)
	newest[e.Obj] = int32(len(pp.placements))
	return int32(len(pp.placements) - 1)
}

// wordsPerPage is the number of machine words in a 4 KiB page, the
// granularity of the prepass word-ownership table.
const wordsPerPage = arch.PageSize4K / arch.WordBytes
