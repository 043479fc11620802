// Package sim implements phase 2 of the paper's experiment (Figure 1):
// replaying a program event trace against every discovered monitor
// session simultaneously, producing the per-session counting variables
// the analytical models of §7 consume:
//
//	InstallMonitor_σ, RemoveMonitor_σ   installs/removes in the session
//	MonitorHit_σ                        writes hitting a session monitor
//	MonitorMiss_σ                       all other writes
//	VMProtect_σ / VMUnprotect_σ         0→1 / 1→0 transitions of the
//	                                    per-page active-monitor count
//	VMActivePageMiss_σ                  misses landing on a page holding
//	                                    an active monitor of the session
//
// The simulator relies on the trace's exclusivity invariant — at any
// instant each word belongs to at most one live object
// (trace.ValidateExclusive) — which holds for every tracer-produced
// trace because frames nest and heap blocks are disjoint.
//
// Page-granular statistics are computed for 4 KiB and 8 KiB pages in the
// same pass. A naive per-session replay would cost |sessions| × |trace|;
// this implementation is a single pass over the trace:
//
//   - object → session membership is the CSR index of sessions.Set —
//     one offset lookup and a shared flat int32 array, no per-object
//     slice headers;
//   - per-page session counts live in a flat table (pageTab) with one
//     entry per (page, session) pair ever active, reached through each
//     placement's slot list: an install or remove walks a list, never
//     a search, and a replay allocates a handful of slices in total.
//
// RunWithOptions is the only entry point, and one driver runs every
// replay: it injects the replay fault, clamps the shard count, builds
// the Output, opens the engine span, fans the session set out over K
// contiguous index ranges and derives the closed-form counters
// (finishCounters). Each shard owns a disjoint subslice of PerSession
// and its own page tables, so no locks are needed and the merge is a
// no-op; K=1 runs inline on the calling goroutine.
//
// How a shard addresses the trace depends on the input, and exactly two
// front-ends exist:
//
//   - A materialised trace is replayed through its prepass (Prepare):
//     writes are resolved and counted per object, touched pages are
//     remapped to dense indexes and installs/removes numbered by
//     placement once, so every shard scans two shared int32 columns
//     (replayRange).
//   - A v3 StreamSource is decoded once, block by block, and each shard
//     keeps incremental member-only word, page and placement tables
//     (stream.go). Blocks whose writes provably touch no monitored page
//     are skipped.
//
// Both front-ends drive the same pageTab accounting, so their outputs
// are bit-identical (and the differential oracle suite, oracle_test.go,
// re-proves it against a naive per-session replay for every shard
// count).
package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/objects"
	"edb/internal/obsv"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// PageSizes lists the page sizes simulated, in index order.
var PageSizes = [2]int{arch.PageSize4K, arch.PageSize8K}

// PageStats holds the page-granularity counting variables for one page
// size.
type PageStats struct {
	Protects       uint64 // VMProtect_σ
	Unprotects     uint64 // VMUnprotect_σ
	ActivePageMiss uint64 // VMActivePageMiss_σ
}

// Counting is the full counting-variable vector for one session.
type Counting struct {
	Installs uint64
	Removes  uint64
	Hits     uint64
	Misses   uint64
	VM       [2]PageStats // indexed like PageSizes
}

// Output is the phase-2 result for one program.
type Output struct {
	Program     string
	BaseCycles  uint64
	TotalWrites uint64
	// PerSession is parallel to set.Sessions.
	PerSession []Counting
	Set        *sessions.Set
}

// ShardThreshold is the session count below which automatic shard
// selection replays in one pass: with few sessions the per-shard
// fan-out overhead (one full event-stream scan per worker) outweighs
// the parallelism.
const ShardThreshold = 64

// Options parameterises a replay beyond the trace and session set.
// Callers pick in-memory vs streamed replay by data: pass a
// materialised *trace.Trace to replay in memory, or set Source (with a
// nil trace) to stream a v3 file block by block.
type Options struct {
	// Shards is the number of contiguous session ranges replayed
	// concurrently, clamped to the session count. 0 selects
	// automatically: for in-memory replay GOMAXPROCS shards when the
	// host has spare cores and the session population is at least
	// ShardThreshold, one otherwise; for streamed replay one. 1 (or
	// any negative value) forces one inline pass.
	Shards int
	// Source selects streamed replay over a v3 trace: the trace
	// argument must be nil, and blocks are decoded once and fanned out
	// to all shards through a bounded pipeline (stream.go). Prepass
	// does not apply to streamed replay.
	Source trace.StreamSource
	// Obs, when non-nil, receives replay spans: the trace prepass
	// (when not supplied via Prepass), the engine span with an
	// events-per-second attribute, one span per shard (with its
	// session index range, and for streamed replay its skipped-block
	// count) and the streamed decode pass, so a Perfetto timeline
	// shows the replay fan-out and throughput. Nil disables
	// observation at zero cost; results are bit-identical either way
	// (observation never feeds back).
	Obs *obsv.Tracer
	// Prepass supplies a precomputed trace prepass (Prepare). It must
	// have been built from exactly this trace; replays under different
	// session sets, shard counts, and timing profiles can all share
	// one prepass (internal/exp caches it with the trace). Nil makes
	// the engine compute it on entry.
	Prepass *Prepass
}

// RunWithOptions replays the trace — or, with Options.Source, the
// streamed v3 trace — against the session set. Every shard count and
// both sources produce bit-identical output.
//
// Replay entry is an injection point (fault.SiteSimReplay, keyed by
// program name); with no active chaos plan the check is one atomic
// load per replay, never per event.
func RunWithOptions(tr *trace.Trace, set *sessions.Set, o Options) (*Output, error) {
	out := &Output{Set: set}
	r := replay{set: set, out: out, obs: o.Obs}
	events := 0
	switch {
	case o.Source != nil && tr != nil:
		return nil, fmt.Errorf("sim: both a materialised trace and a stream source supplied")
	case o.Source != nil && o.Prepass != nil:
		return nil, fmt.Errorf("sim: a prepass cannot drive a streamed replay")
	case o.Source != nil:
		s, err := o.Source.Open()
		if err != nil {
			return nil, fmt.Errorf("sim: opening trace stream: %w", err)
		}
		defer s.Close()
		r.s = s
		out.Program, out.BaseCycles, out.TotalWrites = s.Program, s.BaseCycles, s.NumWrites
		events = int(s.NumEvents)
	case tr == nil:
		return nil, fmt.Errorf("sim: nil trace and no stream source")
	default:
		out.Program, out.BaseCycles = tr.Program, tr.BaseCycles
		events = len(tr.Events)
	}
	if err := fault.Inject(fault.SiteSimReplay, out.Program); err != nil {
		return nil, fmt.Errorf("sim: replaying %s: %w", out.Program, err)
	}

	n := len(set.Sessions)
	shards := o.Shards
	if w := runtime.GOMAXPROCS(0); shards == 0 && tr != nil && w > 1 && n >= ShardThreshold {
		shards = w
	}
	shards = max(1, min(shards, n))
	if o.Obs != nil {
		name := "replay-sequential"
		if r.s != nil {
			name = "replay-stream"
		} else if shards > 1 {
			name = "replay-sharded"
		}
		sp := o.Obs.StartSpan(name)
		sp.Attr("program", out.Program)
		sp.Int("sessions", int64(n))
		sp.Int("events", int64(events))
		sp.Int("shards", int64(shards))
		start := time.Now()
		defer func() {
			if secs := time.Since(start).Seconds(); secs > 0 {
				sp.Float("events_per_sec", float64(events)/secs)
			}
			sp.End()
		}()
	}
	if tr != nil {
		pp, err := ensurePrepass(tr, o.Prepass, o.Obs)
		if err != nil {
			return nil, err
		}
		r.pp, out.TotalWrites = pp, pp.TotalWrites
	}

	out.PerSession = make([]Counting, n)
	if n > 0 {
		if r.s != nil && shards > 1 {
			r.feeds, r.free = newPipeline(shards)
		}
		if err := r.fanOut(shards); err != nil {
			return nil, fmt.Errorf("sim: streaming %s: %w", out.Program, err)
		}
	}
	finishCounters(out.PerSession, out.TotalWrites)
	return out, nil
}

// ensurePrepass returns pp when supplied (after checking it matches
// the trace) and computes it otherwise, under a replay-prepass span
// when observed.
func ensurePrepass(tr *trace.Trace, pp *Prepass, obs *obsv.Tracer) (*Prepass, error) {
	if pp != nil {
		if pp.Events() != len(tr.Events) {
			return nil, fmt.Errorf("sim: %s: prepass covers %d events, trace has %d (built from a different trace?)",
				tr.Program, pp.Events(), len(tr.Events))
		}
		return pp, nil
	}
	if obs != nil {
		sp := obs.StartSpan("replay-prepass")
		sp.Attr("program", tr.Program)
		sp.Int("events", int64(len(tr.Events)))
		defer sp.End()
	}
	return Prepare(tr)
}

// replay is one RunWithOptions call as its shards see it: the session
// set, the output whose PerSession they fill, and one of the two
// front-ends. It is passed by value, so the inline one-shard pass
// allocates nothing beyond the front-end's own tables.
type replay struct {
	set *sessions.Set
	out *Output
	obs *obsv.Tracer
	// The in-memory front-end: the trace's prepass.
	pp *Prepass
	// The streamed front-end: the open stream and, with several
	// shards, the decoder's per-shard feeds and free block list.
	s     *trace.Stream
	feeds []chan *sharedBlock
	free  chan *sharedBlock
}

// fanOut replays every shard's contiguous session range — the first
// n%shards shards take one extra session — and returns the decode
// error, if any. One shard runs inline on the calling goroutine; with
// several, each runs on its own goroutine while the calling goroutine
// runs the streamed decoder that feeds them.
func (r replay) fanOut(shards int) error {
	n := len(r.set.Sessions)
	if shards == 1 {
		return r.shard(0, 0, int32(n))
	}
	var wg sync.WaitGroup
	wg.Add(shards)
	for k := 0; k < shards; k++ {
		lo, hi := int32(k*n/shards), int32((k+1)*n/shards)
		go func() {
			defer wg.Done()
			r.shard(k, lo, hi)
		}()
	}
	var err error
	if r.s != nil {
		err = r.decode(r.broadcast)
		for _, f := range r.feeds {
			close(f)
		}
	}
	wg.Wait()
	return err
}

// shard replays sessions [lo, hi) into their slice of PerSession, under
// a per-shard span when observed.
func (r replay) shard(k int, lo, hi int32) error {
	var sp obsv.Span
	if r.obs != nil {
		name := "replay-shard"
		if r.s != nil {
			name = "replay-stream-shard"
		}
		sp = r.obs.StartSpan(name)
		sp.Attr("program", r.out.Program)
		sp.Attr("sessions", strconv.Itoa(int(lo))+".."+strconv.Itoa(int(hi)))
	}
	per := r.out.PerSession[lo:hi]
	if r.s == nil {
		var pages [2]pageTab
		replayRange(r.set, r.pp, lo, hi, per, &pages)
		spanTables(&sp, &pages)
		sp.End()
		return nil
	}
	w, skipped, err := r.streamShard(k, lo, hi, per)
	sp.Int("skipped_blocks", int64(skipped))
	spanTables(&sp, &w.pages)
	sp.End()
	return err
}

// finishCounters derives the counters that fall out of closed-form
// identities rather than per-event work:
//
//   - MonitorMiss_σ = total writes − MonitorHit_σ: the software
//     strategies check *every* write instruction regardless of which
//     monitors are active.
//
//   - VMActivePageMiss_σ: the epoch write counters credit every write
//     on a page to the page's whole population — including the
//     sessions whose monitor the write hit, which the definition
//     excludes. A hit write resolves to a live object (its install has
//     no matching remove yet, or the prepass word table would have
//     been cleared), so every session containing that object holds a
//     positive count on the written page at that instant, for both
//     page sizes: each hit over-credits its sessions by exactly one,
//     and the total correction is MonitorHit_σ. The trace validity
//     invariants (trace.Validate + ValidateExclusive: removes match
//     installs, words are exclusively owned) are what make the
//     argument airtight; the differential oracle suite re-checks the
//     identity against a naive per-write-exclusion replay.
func finishCounters(per []Counting, totalWrites uint64) {
	for i := range per {
		c := &per[i]
		c.Misses = totalWrites - c.Hits
		c.VM[0].ActivePageMiss -= c.Hits
		c.VM[1].ActivePageMiss -= c.Hits
	}
}

// replayRange is the in-memory front-end's shard: it replays the
// shared prepass columns for the sessions in [lo, hi), accumulating
// into per (the PerSession subslice for that range; per[0] is session
// lo) and the caller-owned page tables. The loop reads two int32
// columns per event and performs no hashing, no search and no
// membership lookup: an install or remove walks its placement's slot
// lists (built the first time the shard meets the placement), a write
// bumps one counter per page size. The per-object event counts are
// credited to the member sessions once, at the end.
func replayRange(set *sessions.Set, pp *Prepass, lo, hi int32, per []Counting, pages *[2]pageTab) {
	r := newSessionRange(set, lo, hi)
	var slots [2]int
	for i := range pp.placements {
		pl := &pp.placements[i]
		m := len(r.members(pl.obj))
		slots[0] += m * int(pl.n[0])
		slots[1] += m * int(pl.n[1])
	}
	for psi := range pages {
		pages[psi].init(pp.NumPages[psi], int32(len(pp.placements)), lo, hi, slots[psi])
	}
	var buf [16]int32
	ev1 := pp.evPage[1]
	w0, w1 := pages[0].wtotal, pages[1].wtotal
	for i, p := range pp.evPage[0] {
		switch kind := ev1[i]; kind {
		case evInstall, evRemove:
			if !pages[0].isBuilt(p) {
				r.buildPlacement(pages, p, &pp.placements[p], buf[:0])
			}
			if kind == evInstall {
				pages[0].install(p, per, 0)
				pages[1].install(p, per, 1)
			} else {
				pages[0].remove(p, per, 0)
				pages[1].remove(p, per, 1)
			}
		default:
			// O(1) active-page accounting: bump the page's cumulative
			// write counter; each session's share is credited as
			// wtotal − base when its active interval closes (pageTab
			// remove/settle). Hit sessions are over-credited by
			// exactly one per hit; finishCounters subtracts Hits to
			// cancel it (see the invariant documented there).
			if p >= 0 {
				w0[p]++
			}
			if q := ev1[i]; q >= 0 {
				w1[q]++
			}
		}
	}
	for psi := range pages {
		pages[psi].settle(per, psi)
	}
	for obj, c := range pp.objs {
		if c == (objCount{}) {
			continue
		}
		for _, s := range r.members(objects.ID(obj)) {
			per[s-lo].Installs += c.installs
			per[s-lo].Removes += c.removes
			per[s-lo].Hits += c.hits
		}
	}
}

// buildPlacement makes prepass placement p's slot list in both page
// tables, listing its consecutive dense pages in buf.
func (r *sessionRange) buildPlacement(pages *[2]pageTab, p int32, pl *placement, buf []int32) {
	members := r.members(pl.obj)
	for psi := range pages {
		ps := buf[:0]
		for k := int32(0); k < pl.n[psi]; k++ {
			ps = append(ps, pl.page[psi]+k)
		}
		pages[psi].build(p, members, ps, r.lo)
	}
}

// sessionRange is the contiguous session-index range [lo, hi) one
// shard owns — the whole set at the streamed decoder — with membership
// lookups trimmed to it.
type sessionRange struct {
	set    *sessions.Set
	lo, hi int32
	full   bool
}

func newSessionRange(set *sessions.Set, lo, hi int32) sessionRange {
	return sessionRange{set: set, lo: lo, hi: hi, full: lo == 0 && hi == int32(len(set.Sessions))}
}

// members returns the sessions of the range that contain obj.
func (r *sessionRange) members(obj objects.ID) []int32 {
	if r.full {
		return r.set.Membership(obj)
	}
	return r.set.MembershipRange(obj, r.lo, r.hi)
}

// memberCount is the number of (object, session) memberships of the
// range's sessions, from which a streamed shard sizes its slot lists.
func (r *sessionRange) memberCount() int {
	n := 0
	for i := r.lo; i < r.hi; i++ {
		n += len(r.set.Sessions[i].Objects)
	}
	return n
}

// tableKeys name the replay-shard span attributes that report each
// page size's table: its placements (slot lists built) and entries.
var tableKeys = [2][2]string{{"placements_4k", "entries_4k"}, {"placements_8k", "entries_8k"}}

// spanTables reports the size of a shard's page tables on its span.
func spanTables(sp *obsv.Span, pages *[2]pageTab) {
	for psi := range pages {
		sp.Int(tableKeys[psi][0], int64(pages[psi].built))
		sp.Int(tableKeys[psi][1], int64(len(pages[psi].ents)-1))
	}
}

// FilterZeroHit returns the indices of sessions with at least one
// monitor hit — the paper discards hitless sessions "under the
// assumption that they are unlikely candidates during debugging".
func (o *Output) FilterZeroHit() []int {
	var keep []int
	for i := range o.PerSession {
		if o.PerSession[i].Hits > 0 {
			keep = append(keep, i)
		}
	}
	return keep
}
