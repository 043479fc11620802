package sim

// pageTab is one replay's page accounting for one page size: for every
// (dense page, session) pair a placement the replay met covers, the
// session's live monitor count on the page. Both front-ends drive it
// the same way; they differ only in how they number pages and
// placements.
//
// A placement is one (object, 4 KiB page span) pair: every install or
// remove event has one, and an object's events almost always reuse it
// (a local's frame slot, a heap block's address). The table keeps one
// slot list per placement — the entry index of every (page, member
// session) pair the placement covers, built the first time the replay
// meets it — so install and remove walk the list with no search.
// Within one list pages and members are distinct, so each entry
// appears at most once.
//
// A chain per session keeps the build free of maps and of searches over
// large blocks: every session's entries are linked newest first (next),
// and a build walks a member's chain for the page, appending an entry
// the first time the session touches it. A session touches a handful
// of pages, so the chains are short even where hundreds of sessions
// share one stack page. (The front-ends find a placement the same way,
// through a chain per object.)
//
// Interval-credit active-page accounting. Each page carries a
// cumulative write counter (wtotal, never reset) and each entry records
// the counter's value when its session's count last rose from zero
// (base). A write is then a single unconditional increment; the
// session's ActivePageMiss share for the whole active interval,
// wtotal − base, is credited once when the count returns to zero (and
// once at end of replay for entries still active — settle). Hit writes
// over-credit their sessions by exactly one each; finishCounters
// cancels that in closed form.
//
// Slot 0 and entry 0 are reserved, so a zero slotList offset means "not
// built yet" and a zero chain link ends a chain; none of the slices
// needs an initialisation pass.
type pageTab struct {
	wtotal []uint64    // by dense page: cumulative write counter
	ents   []pageEntry // from 1: one per (dense page, session) ever listed
	chain  []int32     // by session: the session's newest entry, 0 none
	lists  []slotList  // by placement id
	slots  []int32     // from 1: entry indexes, one list after another
	built  int32       // slot lists built
}

// pageEntry is one session's standing on one dense page: its live
// monitor count and, while the count is non-zero, the page's wtotal at
// the instant the count left zero (the interval-credit baseline).
type pageEntry struct {
	sess  int32 // session index: the session's slot in per
	page  int32
	count int32
	next  int32 // the session's next older entry, 0 ends the chain
	base  uint64
}

// slotList locates one placement's slots: slots[off : off+n]. off 0
// means the replay has not met the placement yet.
type slotList struct{ off, n int32 }

// init sizes the table for nPages dense pages, nPlacements placements
// and nSessions sessions, with room for the slots the replay expects
// its lists to hold. An entry is created through a slot, and a session
// touches few pages, so the entries get the smaller of the slot count
// and one and a half per session. Streamed replay starts with no pages
// and the placements it expects, and grows both as they arrive
// (addPage, addPlacement); capacity only decides how often a slice
// grows.
func (t *pageTab) init(nPages, nPlacements, nSessions int32, slots int) {
	t.wtotal = make([]uint64, nPages)
	t.ents = make([]pageEntry, 1, 1+min(slots, int(nSessions)*3/2))
	t.chain = make([]int32, nSessions)
	t.lists = make([]slotList, nPlacements)
	t.slots = make([]int32, 1, 1+slots)
}

// addPage appends one dense page and returns its index.
func (t *pageTab) addPage() int32 {
	t.wtotal = append(t.wtotal, 0)
	return int32(len(t.wtotal) - 1)
}

// addPlacement makes room for placement p, numbered in arrival order.
func (t *pageTab) addPlacement(p int32) {
	if int(p) == len(t.lists) {
		t.lists = append(t.lists, slotList{})
	}
}

// isBuilt reports whether placement p's slot list exists.
func (t *pageTab) isBuilt(p int32) bool { return t.lists[p].off != 0 }

// build makes placement p's slot list over the member sessions and the
// dense pages it spans, creating the entries of pairs the replay has
// not seen before. Call once per
// placement; an empty member list builds an empty list.
func (t *pageTab) build(p int32, members, pages []int32) {
	off := int32(len(t.slots))
	for _, pg := range pages {
		for _, s := range members {
			t.slots = append(t.slots, t.entry(pg, s))
		}
	}
	t.lists[p] = slotList{off: off, n: int32(len(t.slots)) - off}
	t.built++
}

// entry returns the index of the entry for (page pg, session s),
// walking the session's chain and appending a zero-count entry when the
// session has never been listed on the page.
func (t *pageTab) entry(pg, s int32) int32 {
	for k := t.chain[s]; k != 0; k = t.ents[k].next {
		if t.ents[k].page == pg {
			return k
		}
	}
	k := int32(len(t.ents))
	t.ents = append(t.ents, pageEntry{sess: s, page: pg, next: t.chain[s]})
	t.chain[s] = k
	return k
}

// install raises the count of every entry on placement p's slot list.
// A 0→1 transition charges a VMProtect and (re)bases the entry's
// interval credit at the page's current wtotal.
func (t *pageTab) install(p int32, per []Counting, psi int) {
	l := t.lists[p]
	for _, k := range t.slots[l.off : l.off+l.n] {
		e := &t.ents[k]
		if e.count == 0 {
			per[e.sess].VM[psi].Protects++
			e.base = t.wtotal[e.page]
		}
		e.count++
	}
}

// remove lowers the count of every active entry on placement p's slot
// list. A 1→0 transition charges a VMUnprotect and credits the closed
// interval's write exposure, wtotal − base, as ActivePageMiss. Entries
// already at zero are left alone (a remove with no matching install is
// a no-op).
func (t *pageTab) remove(p int32, per []Counting, psi int) {
	l := t.lists[p]
	for _, k := range t.slots[l.off : l.off+l.n] {
		e := &t.ents[k]
		if e.count == 0 {
			continue
		}
		e.count--
		if e.count == 0 {
			per[e.sess].VM[psi].Unprotects++
			per[e.sess].VM[psi].ActivePageMiss += t.wtotal[e.page] - e.base
		}
	}
}

// settle credits every still-active entry's open interval, wtotal −
// base, as ActivePageMiss (end of replay). Call exactly once.
func (t *pageTab) settle(per []Counting, psi int) {
	for _, e := range t.ents[1:] {
		if e.count > 0 {
			per[e.sess].VM[psi].ActivePageMiss += t.wtotal[e.page] - e.base
		}
	}
}

// livePages counts pages with at least one active (count > 0) entry —
// the balance check the property suite asserts after install/remove-
// balanced traces (everything protected must have been unprotected).
func (t *pageTab) livePages() int {
	live := make([]bool, len(t.wtotal))
	n := 0
	for _, e := range t.ents[1:] {
		if e.count > 0 && !live[e.page] {
			live[e.page] = true
			n++
		}
	}
	return n
}

// pendingCredit sums the uncredited active exposure, Σ wtotal − base
// over active entries: what settle would credit if the replay ended
// now. Zero after a balanced trace (no entry is active), asserted by
// the engine's internal tests.
func (t *pageTab) pendingCredit() uint64 {
	var n uint64
	for _, e := range t.ents[1:] {
		if e.count > 0 {
			n += t.wtotal[e.page] - e.base
		}
	}
	return n
}
