package sim

// The streamed front-end: replay over the columnar trace store (trace
// format v3), block by block, never holding []trace.Event.
//
// The source is opened once and read by a single decode pass
// (replayStream) that hands each block straight to the one worker, so
// the memory ceiling is a block's columns and the worker's tables,
// independent of the file. The worker has no prepass to lean on, so it
// keeps incremental word-ownership, dense page and placement tables,
// for member objects only.
//
// Block skip (memberPages) elides the write columns of any block whose
// written-page summary cannot intersect the pages a monitored session
// lives on: the decoder skips DecodeWrites and the worker replays only
// the block's installs and removes. (Skipping whole blocks would never
// fire on real workloads: locals churn on every call, so every block
// holds install/remove events.)
//
// Why skipping writes is sound, bit for bit (the full argument is
// DESIGN.md §12; the property suite re-proves it empirically):
//
//   - Monitored state only ever enters a page through an install event
//     with non-empty session membership, and the member-page set grows
//     with every member install/remove seen so far, *including the
//     current block's own*, before deciding — so it is a superset of
//     every page that holds or will hold an entry while this block's
//     writes execute.
//
//   - A skipped write can't be a monitor hit: a hit needs its word
//     owned by a live member object, which requires a member install
//     covering that word — putting the write's page in the set and the
//     block's summary in intersection.
//
//   - A skipped write can't change VMActivePageMiss: per-page write
//     counters (pageTab wtotal) only matter relative to the base
//     snapshot taken when a member entry is created, and interval
//     credit is wtotal − base. Writes to a page before its first
//     member install are absorbed into base; the streamed worker
//     simply never counts them on either side of the subtraction, so
//     the credit is identical.
//
//   - 8 KiB exactness: the set also contains the 4 KiB buddy of every
//     member page (pn ^ 1), so a write to the other half of a
//     monitored 8 KiB page is never skipped and its 8 KiB wtotal bump
//     is preserved.
//
// The summary itself is conservative by construction (writer
// summarises the actual write pages; bloom filters only
// over-approximate) and the decoder rejects any CRC-valid summary a
// decoded write escapes, so a false "cannot intersect" is impossible —
// skipping only ever drops writes that provably touch no monitored
// page. The skipped bytes are still read and CRC-verified by
// trace.Stream; only decode and replay work is elided.

import (
	"edb/internal/arch"
	"edb/internal/objects"
	"edb/internal/obsv"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// replayStream is the streamed front-end: one pass over s that reads
// and CRC-checks every block, decodes its write columns unless the
// member pages rule them out, and replays it for every session of set
// into per (parallel to set.Sessions) and pages, the worker's page
// tables. The decode pass gets a replay-stream-decode span when
// observed.
func replayStream(s *trace.Stream, set *sessions.Set, per []Counting, pages *[2]pageTab, obs *obsv.Tracer) error {
	sp := obs.StartSpan("replay-stream-decode")
	defer sp.End()
	sp.Attr("program", s.Program)
	sp.Int("blocks", int64(s.NumBlocks))
	w := newStreamWorker(set, per)
	skip := newMemberPages()
	skipped := 0
	for s.Next() {
		sum := s.Summary()
		blk, err := s.DecodeIR()
		if err != nil {
			return err
		}
		if skip.skips(sum, blk, set) {
			skipped++
			w.replayIROnly(blk)
			continue
		}
		if err := s.DecodeWrites(); err != nil {
			return err
		}
		w.replayBlock(blk)
	}
	sp.Int("skipped_write_columns", int64(skipped))
	if err := s.Err(); err != nil {
		return err
	}
	w.settle()
	*pages = w.pages
	return nil
}

// memberPages is the block-skip test: the monotone set of 4 KiB pages
// spanned by member installs/removes seen so far, plus each page's
// 8 KiB buddy. A bitmap over the 20-bit page-number space (128 KiB)
// makes the insert a bit test, and list keeps the distinct pages
// enumerable for the per-block intersection.
type memberPages struct {
	bits []uint64
	list []uint32
}

func newMemberPages() *memberPages {
	return &memberPages{bits: make([]uint64, (1<<20)/64)}
}

// skips adds the pages of the block's install/remove events whose
// object has members in set — before deciding, so installs inside the
// block are covered — and reports whether the block's writes provably
// touch none of the set's pages. Iterating list (bounded by the pages
// monitored objects ever touch) against the constant-time summary test
// is cheap; the bloom cannot be enumerated in the other direction.
func (m *memberPages) skips(sum *trace.BlockSummary, blk *trace.Block, set *sessions.Set) bool {
	for j := range blk.IRObj {
		if len(set.Membership(blk.IRObj[j])) == 0 {
			continue
		}
		first, last := arch.PagesSpanned(blk.IRBA[j], blk.IREA[j], arch.PageSize4K)
		for pn := first; pn <= last; pn++ {
			m.add(pn)
			m.add(pn ^ 1) // 8 KiB buddy
		}
	}
	if sum.NWrites == 0 {
		return false
	}
	for _, pn := range m.list {
		if sum.MayContainWritePage(pn) {
			return false
		}
	}
	return true
}

func (m *memberPages) add(pn uint32) {
	if m.bits[pn>>6]&(1<<(pn&63)) == 0 {
		m.bits[pn>>6] |= 1 << (pn & 63)
		m.list = append(m.list, pn)
	}
}

// wordPage is one 4 KiB page of the worker's word-ownership table,
// mirroring the prepass resolution but maintained incrementally and
// only for member objects (non-member ownership can never produce a
// hit for this worker's sessions, so tracking it would be dead work).
type wordPage [wordsPerPage]objects.ID

// streamWorker is the streamed replay state: the same pageTab
// machinery as the in-memory front-end, with placements numbered as
// they arrive and pages addressed through a raw-page → dense-index map
// grown as member pages appear. The maps are read when a placement is
// first met and on the write path; an install or remove finds its
// placement through its object's chain and its word pages through the
// placement.
type streamWorker struct {
	set     *sessions.Set
	per     []Counting
	pages   [2]pageTab
	pageIdx [2]map[uint32]int32
	words   map[uint32]*wordPage
	// newest[obj] is obj's newest placement + 1, 0 before its first
	// install or remove and -1 when no session contains it.
	newest []int32
	plc    []streamPlacement
	// plcWords holds each placement's word pages, one run per
	// placement, in span order.
	plcWords []*wordPage
	buf      []int32 // the dense pages of the placement being built
	// objs counts each member object's installs, removes and hits, as
	// the prepass does; settle credits them to the object's sessions.
	objs []objCount

	// Last-written-page cache: consecutive writes overwhelmingly land
	// on the page of the previous write, so replayWrite caches that
	// page's three table lookups. A new placement invalidates it (the
	// only event that creates wordPages or dense page indices).
	wrCacheOK bool
	wrPN      uint32
	wrWords   *wordPage
	wrPi      [2]int32 // dense index per page size, -1 = absent
}

// streamPlacement is one (object, 4 KiB page span) pair of the
// worker's member objects, reached through the object's chain.
type streamPlacement struct {
	first, last uint32 // 4 KiB pages spanned; first > last for an empty range
	older       int32  // the object's previous placement + 1, 0 ends
	words       int32  // the placement's run in plcWords
}

// newStreamWorker builds the replay state for every session of set,
// accumulating into per.
func newStreamWorker(set *sessions.Set, per []Counting) *streamWorker {
	w := &streamWorker{
		set:     set,
		per:     per,
		pageIdx: [2]map[uint32]int32{make(map[uint32]int32), make(map[uint32]int32)},
		words:   make(map[uint32]*wordPage),
		newest:  make([]int32, set.NumObjects()+1),
		objs:    make([]objCount, set.NumObjects()+1),
	}
	// An object mostly has one placement on one page: expect one
	// placement per member object and one slot per membership, plus an
	// eighth for objects that move or straddle a page.
	memberObjs := 0
	for id := 1; id < len(w.newest); id++ {
		if len(set.Membership(objects.ID(id))) > 0 {
			memberObjs++
		}
	}
	slots := len(set.Members)
	slots += slots / 8
	w.plc = make([]streamPlacement, 0, memberObjs)
	w.plcWords = make([]*wordPage, 0, memberObjs)
	for psi := range w.pages {
		w.pages[psi].init(0, int32(memberObjs), int32(len(per)), slots)
	}
	return w
}

// settle closes every open page interval into the worker's counters
// and credits each object's installs, removes and hits to its
// sessions.
func (w *streamWorker) settle() {
	for psi := range w.pages {
		w.pages[psi].settle(w.per, psi)
	}
	creditObjects(w.set, w.objs, w.per)
}

// placement returns the worker's placement for an install or remove of
// obj over [ba, ea), creating it the first time, or -1 when no session
// contains obj.
func (w *streamWorker) placement(obj objects.ID, ba, ea arch.Addr) int32 {
	if int(obj) >= len(w.newest) || w.newest[obj] < 0 {
		return -1
	}
	first, last := arch.PagesSpanned(ba, ea, arch.PageSize4K)
	for k := w.newest[obj]; k != 0; k = w.plc[k-1].older {
		if pl := &w.plc[k-1]; pl.first == first && pl.last == last {
			return k - 1
		}
	}
	members := w.set.Membership(obj)
	if len(members) == 0 {
		w.newest[obj] = -1
		return -1
	}
	return w.newPlacement(obj, first, last, members)
}

// newPlacement appends obj's placement on 4 KiB pages [first, last],
// builds its slot list in both page tables and collects its word
// pages, creating any page the worker has not seen.
func (w *streamWorker) newPlacement(obj objects.ID, first, last uint32, members []int32) int32 {
	p := int32(len(w.plc))
	w.plc = append(w.plc, streamPlacement{
		first: first, last: last, older: w.newest[obj], words: int32(len(w.plcWords)),
	})
	w.newest[obj] = p + 1
	w.wrCacheOK = false
	for psi := range w.pages {
		w.buf = w.buf[:0]
		// An 8 KiB page number is the 4 KiB one shifted right by one.
		for pn := first >> psi; first <= last && pn <= last>>psi; pn++ {
			w.buf = append(w.buf, w.densePage(psi, pn))
		}
		w.pages[psi].addPlacement(p)
		w.pages[psi].build(p, members, w.buf)
	}
	for pn := first; first <= last && pn <= last; pn++ {
		pg := w.words[pn]
		if pg == nil {
			pg = &wordPage{}
			w.words[pn] = pg
		}
		w.plcWords = append(w.plcWords, pg)
	}
	return p
}

// densePage returns (creating on first touch) the dense page-table
// index for raw page pn of page size psi.
func (w *streamWorker) densePage(psi int, pn uint32) int32 {
	if pi, ok := w.pageIdx[psi][pn]; ok {
		return pi
	}
	pi := w.pages[psi].addPage()
	w.pageIdx[psi][pn] = pi
	return pi
}

// replayIROnly replays only the block's install/remove events — the
// skip path. Order against the block's (skipped) writes is irrelevant:
// no skipped write touches a page any of these events install onto
// (their pages are in memberPages, which the skip test just cleared).
func (w *streamWorker) replayIROnly(blk *trace.Block) {
	for j := range blk.IRKind {
		w.replayIREvent(blk.IRKind[j], blk.IRObj[j], blk.IRBA[j], blk.IREA[j])
	}
}

// replayBlock replays the block's events in stream order.
func (w *streamWorker) replayBlock(blk *trace.Block) {
	ir, wr := 0, 0
	for i := 0; i < blk.NEvents; i++ {
		if blk.IsWrite[i] {
			w.replayWrite(blk.WrBA[wr])
			wr++
		} else {
			w.replayIREvent(blk.IRKind[ir], blk.IRObj[ir], blk.IRBA[ir], blk.IREA[ir])
			ir++
		}
	}
}

// replayIREvent mirrors replayPrepass's install/remove arms: the same
// slot-list walks over the same pageTab, so counters are bit-identical;
// only the numbering of pages and placements differs.
func (w *streamWorker) replayIREvent(kind trace.EventKind, obj objects.ID, ba, ea arch.Addr) {
	p := w.placement(obj, ba, ea)
	if p < 0 {
		return
	}
	pl := &w.plc[p]
	// Word-ownership for hit resolution, member objects only. The
	// exclusivity invariant makes ignoring non-members safe: a word
	// owned by a non-member resolves to 0 here instead, and both have
	// empty membership.
	words := w.plcWords[pl.words:]
	if kind == trace.EvInstall {
		w.objs[obj].installs++
		w.pages[0].install(p, w.per, 0)
		w.pages[1].install(p, w.per, 1)
		for a := ba; a < ea; a += arch.WordBytes {
			words[uint32(a)>>12-pl.first][(a%4096)/4] = obj
		}
		return
	}
	w.objs[obj].removes++
	w.pages[0].remove(p, w.per, 0)
	w.pages[1].remove(p, w.per, 1)
	for a := ba; a < ea; a += arch.WordBytes {
		if pg := words[uint32(a)>>12-pl.first]; pg[(a%4096)/4] == obj {
			pg[(a%4096)/4] = 0
		}
	}
}

// replayWrite mirrors replayPrepass's write arm: resolve the word to a
// (member) owner for hit counting, and bump the written page's
// cumulative counters where entries could exist. Pages absent from
// pageIdx have never held a member entry; skipping their bump is
// exactly the base-absorption the interval credit relies on.
func (w *streamWorker) replayWrite(ba arch.Addr) {
	pn := uint32(ba) >> 12
	if !w.wrCacheOK || pn != w.wrPN {
		w.wrPN = pn
		w.wrWords = w.words[pn]
		w.wrPi = [2]int32{-1, -1}
		if pi, ok := w.pageIdx[0][pn]; ok {
			w.wrPi[0] = pi
		}
		if pi, ok := w.pageIdx[1][pn>>1]; ok {
			w.wrPi[1] = pi
		}
		w.wrCacheOK = true
	}
	if pg := w.wrWords; pg != nil {
		if obj := pg[(ba%4096)/4]; obj != 0 {
			w.objs[obj].hits++
		}
	}
	if pi := w.wrPi[0]; pi >= 0 {
		w.pages[0].wtotal[pi]++
	}
	if pi := w.wrPi[1]; pi >= 0 {
		w.pages[1].wtotal[pi]++
	}
}
