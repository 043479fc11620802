package sim

// The streamed front-end: replay over the columnar trace store (trace
// format v3), block by block, never holding []trace.Event.
//
// The source is opened once and read by a single decode pass
// (replay.decode). With one shard the decode loop calls that shard's
// worker directly; with several, each decoded block is copied into a
// refcounted shared buffer drawn from a small free list and fanned out
// to every shard's bounded channel, and the last shard to finish a
// block returns its buffer — so at most pipelineDepth blocks are ever
// in flight and the memory ceiling is independent of the file.
//
// A shard has no prepass to lean on, so its worker keeps incremental
// word-ownership, dense page and placement tables, for member objects
// only.
//
// Block skip (memberPages) elides the write columns of any block whose
// written-page summary cannot intersect the pages a monitored session
// lives on. It fires at two levels: the decoder tests the full session
// set and skips DecodeWrites, and with several shards each worker tests
// its own narrower set and skips replaying the writes. (Skipping whole
// blocks would never fire on real workloads: locals churn on every
// call, so every block holds install/remove events.)
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
//   - Two levels: a shard's sessions are a subset of the full set, so
//     its member pages are a subset of the decoder's, and a block the
//     decoder skips is one every shard's own test skips too.
//
// The summary itself is conservative by construction (writer
// summarises the actual write pages; bloom filters only
// over-approximate) and the decoder rejects any CRC-valid summary a
// decoded write escapes, so a false "cannot intersect" is impossible —
// skipping only ever drops writes that provably touch no monitored
// page. The skipped bytes are still read and CRC-verified by
// trace.Stream; only decode and replay work is elided.

import (
	"sync/atomic"

	"edb/internal/arch"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// pipelineDepth is the free-list size: the number of decoded blocks
// that may be in flight at once. Deep enough to keep workers busy
// while the decoder reads ahead, shallow enough that peak memory stays
// a few block-buffers regardless of trace size.
const pipelineDepth = 8

// decode is the single decode pass over the stream: it reads and
// CRC-checks every block once, decodes its write columns unless the
// full session set's member pages rule them out, and hands the block to
// deliver.
func (r replay) decode(deliver func(*trace.BlockSummary, *trace.Block)) error {
	sp := r.obs.StartSpan("replay-stream-decode")
	defer sp.End()
	sp.Attr("program", r.out.Program)
	sp.Int("blocks", int64(r.s.NumBlocks))
	all := newSessionRange(r.set, 0, int32(len(r.set.Sessions)))
	pages := newMemberPages()
	skipped := 0
	for r.s.Next() {
		sum := r.s.Summary()
		blk, err := r.s.DecodeIR()
		if err != nil {
			return err
		}
		if pages.skips(sum, blk, &all) {
			skipped++
		} else if err := r.s.DecodeWrites(); err != nil {
			return err
		}
		deliver(sum, blk)
	}
	sp.Int("skipped_write_columns", int64(skipped))
	return r.s.Err()
}

// streamShard replays the stream for sessions [lo, hi) and returns its
// worker and the number of blocks whose writes it skipped. With one
// shard it is the decode loop itself, calling its one worker directly
// with no block copy; with several it drains the decoder's feed k.
func (r replay) streamShard(k int, lo, hi int32, per []Counting) (w *streamWorker, skipped int, err error) {
	w = newStreamWorker(r.set, lo, hi, per)
	if r.feeds == nil {
		err = r.decode(func(sum *trace.BlockSummary, blk *trace.Block) {
			skipped += w.consume(sum, blk)
		})
	} else {
		w.skip = newMemberPages()
		for sb := range r.feeds[k] {
			skipped += w.consume(&sb.sum, &sb.blk)
			if sb.refs.Add(-1) == 0 {
				r.free <- sb
			}
		}
	}
	w.settle()
	return w, skipped, err
}

// sharedBlock is one decoded block fanned out to all shard workers.
// refs counts workers still replaying it; the worker that drops it to
// zero returns the block to the free list for reuse.
type sharedBlock struct {
	sum  trace.BlockSummary
	blk  trace.Block
	refs atomic.Int32
}

// newPipeline builds the decoder's bounded fan-out to shards workers:
// one feed per shard and a free list of pipelineDepth block buffers.
func newPipeline(shards int) (feeds []chan *sharedBlock, free chan *sharedBlock) {
	free = make(chan *sharedBlock, pipelineDepth)
	for i := 0; i < pipelineDepth; i++ {
		free <- &sharedBlock{}
	}
	feeds = make([]chan *sharedBlock, shards)
	for k := range feeds {
		feeds[k] = make(chan *sharedBlock, pipelineDepth)
	}
	return feeds, free
}

// broadcast is the decoder's delivery with several shards: it copies
// the block into a free shared buffer — the stream overwrites its own
// on the next Next — and queues it on every shard's feed.
func (r replay) broadcast(sum *trace.BlockSummary, blk *trace.Block) {
	sb := <-r.free
	sb.sum = *sum
	b := &sb.blk
	b.NEvents, b.NWrites = blk.NEvents, blk.NWrites
	b.IsWrite = append(b.IsWrite[:0], blk.IsWrite...)
	b.IRKind = append(b.IRKind[:0], blk.IRKind...)
	b.IRObj = append(b.IRObj[:0], blk.IRObj...)
	b.IRBA = append(b.IRBA[:0], blk.IRBA...)
	b.IREA = append(b.IREA[:0], blk.IREA...)
	b.WritesDecoded = blk.WritesDecoded
	b.WrBA = append(b.WrBA[:0], blk.WrBA...)
	b.WrEA = append(b.WrEA[:0], blk.WrEA...)
	b.WrPC = append(b.WrPC[:0], blk.WrPC...)
	sb.refs.Store(int32(len(r.feeds)))
	for _, f := range r.feeds {
		f <- sb
	}
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
// object has members in r — before deciding, so installs inside the
// block are covered — and reports whether the block's writes provably
// touch none of the set's pages. Iterating list (bounded by the pages
// monitored objects ever touch) against the constant-time summary test
// is cheap; the bloom cannot be enumerated in the other direction.
func (m *memberPages) skips(sum *trace.BlockSummary, blk *trace.Block, r *sessionRange) bool {
	for j := range blk.IRObj {
		if len(r.members(blk.IRObj[j])) == 0 {
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

// streamWorker is one shard's replay state: the same pageTab machinery
// as the in-memory front-end, with placements numbered as they arrive
// and pages addressed through a raw-page → dense-index map grown as
// member pages appear. The maps are read when a placement is first met
// and on the write path; an install or remove finds its placement
// through its object's chain and its word pages through the
// placement.
type streamWorker struct {
	sessionRange
	per     []Counting
	pages   [2]pageTab
	pageIdx [2]map[uint32]int32
	words   map[uint32]*wordPage
	// newest[obj] is obj's newest placement + 1, 0 before its first
	// install or remove and -1 when no session of the range contains
	// it.
	newest []int32
	plc    []streamPlacement
	// plcWords holds each placement's word pages, one run per
	// placement, in span order.
	plcWords []*wordPage
	buf      []int32 // the dense pages of the placement being built
	// skip is the worker's own block-skip test over its narrower
	// range; nil for a single shard, whose range is the decoder's.
	skip *memberPages

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
// worker's member objects and the installs and removes it has seen,
// credited to the object's sessions at settle.
type streamPlacement struct {
	obj               objects.ID
	first, last       uint32 // 4 KiB pages spanned; first > last for an empty range
	older             int32  // the object's previous placement + 1, 0 ends
	words             int32  // the placement's run in plcWords
	installs, removes uint64
}

// newStreamWorker builds the replay state for sessions [lo, hi)
// accumulating into per, without a skip test of its own.
func newStreamWorker(set *sessions.Set, lo, hi int32, per []Counting) *streamWorker {
	w := &streamWorker{
		sessionRange: newSessionRange(set, lo, hi),
		per:          per,
		pageIdx:      [2]map[uint32]int32{make(map[uint32]int32), make(map[uint32]int32)},
		words:        make(map[uint32]*wordPage),
		newest:       make([]int32, set.NumObjects()+1),
	}
	// An object mostly has one placement on one page: expect one
	// placement per member object and one slot per membership, plus an
	// eighth for objects that move or straddle a page.
	objs := 0
	for id := 1; id < len(w.newest); id++ {
		if len(w.members(objects.ID(id))) > 0 {
			objs++
		}
	}
	slots := w.memberCount()
	slots += slots / 8
	w.plc = make([]streamPlacement, 0, objs)
	w.plcWords = make([]*wordPage, 0, objs)
	for psi := range w.pages {
		w.pages[psi].init(0, int32(objs), lo, hi, slots)
	}
	return w
}

// consume replays one decoded block for the worker's sessions and
// returns 1 when its writes were skipped — by the worker's own test or
// already by the decoder's.
func (w *streamWorker) consume(sum *trace.BlockSummary, blk *trace.Block) int {
	if (w.skip != nil && w.skip.skips(sum, blk, &w.sessionRange)) || !blk.WritesDecoded {
		w.replayIROnly(blk)
		return 1
	}
	w.replayBlock(blk)
	return 0
}

// settle closes every open page interval into the worker's counters
// and credits each placement's installs and removes to its object's
// sessions.
func (w *streamWorker) settle() {
	for psi := range w.pages {
		w.pages[psi].settle(w.per, psi)
	}
	for i := range w.plc {
		pl := &w.plc[i]
		for _, sess := range w.members(pl.obj) {
			w.per[sess-w.lo].Installs += pl.installs
			w.per[sess-w.lo].Removes += pl.removes
		}
	}
}

// placement returns the worker's placement for an install or remove of
// obj over [ba, ea), creating it the first time, or -1 when no session
// of the range contains obj.
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
	members := w.members(obj)
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
		obj: obj, first: first, last: last, older: w.newest[obj], words: int32(len(w.plcWords)),
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
		w.pages[psi].build(p, members, w.buf, w.lo)
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

// replayIREvent mirrors replayRange's install/remove arms: the same
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
		pl.installs++
		w.pages[0].install(p, w.per, 0)
		w.pages[1].install(p, w.per, 1)
		for a := ba; a < ea; a += arch.WordBytes {
			words[uint32(a)>>12-pl.first][(a%4096)/4] = obj
		}
		return
	}
	pl.removes++
	w.pages[0].remove(p, w.per, 0)
	w.pages[1].remove(p, w.per, 1)
	for a := ba; a < ea; a += arch.WordBytes {
		if pg := words[uint32(a)>>12-pl.first]; pg[(a%4096)/4] == obj {
			pg[(a%4096)/4] = 0
		}
	}
}

// replayWrite mirrors replayRange's write arm: resolve the word to a
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
			for _, sess := range w.members(obj) {
				w.per[sess-w.lo].Hits++
			}
		}
	}
	if pi := w.wrPi[0]; pi >= 0 {
		w.pages[0].wtotal[pi]++
	}
	if pi := w.wrPi[1]; pi >= 0 {
		w.pages[1].wtotal[pi]++
	}
}
