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
// replay, once, on the calling goroutine: it injects the replay fault,
// builds the Output, opens the engine span, runs one front-end over
// the whole session set and derives the closed-form counters
// (finishCounters). Parallelism lives above replay — exp.Config.Workers
// replays benchmarks side by side and edb-serve runs requests side by
// side — so the package starts no goroutines.
//
// How a replay addresses the trace depends on the input, and exactly
// two front-ends exist:
//
//   - A materialised trace is replayed through its prepass (Prepare):
//     writes are resolved and counted per object, touched pages are
//     remapped to dense indexes and installs/removes numbered by
//     placement once, so the replay scans two int32 columns
//     (replayPrepass).
//   - A v3 StreamSource is decoded once, block by block, and the
//     worker keeps incremental member-only word, page and placement
//     tables (stream.go). Blocks whose writes provably touch no
//     monitored page are skipped.
//
// Both front-ends drive the same pageTab accounting, so their outputs
// are bit-identical (and the differential oracle suite, oracle_test.go,
// re-proves it against a naive per-session replay).
package sim

import (
	"fmt"
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

// Options parameterises a replay beyond the trace and session set.
// Callers pick in-memory vs streamed replay by data: pass a
// materialised *trace.Trace to replay in memory, or set Source (with a
// nil trace) to stream a v3 file block by block.
type Options struct {
	// Source selects streamed replay over a v3 trace: the trace
	// argument must be nil, and blocks are decoded once, in one pass
	// (stream.go). Prepass does not apply to streamed replay.
	Source trace.StreamSource
	// Obs, when non-nil, receives replay spans: the trace prepass
	// (when not supplied via Prepass), the engine span with an
	// events-per-second attribute and the size of its page tables, and
	// for streamed replay the decode pass with its skipped-block count,
	// so a Perfetto timeline shows the replay and its throughput. Nil
	// disables observation at zero cost; results are bit-identical
	// either way (observation never feeds back).
	Obs *obsv.Tracer
	// Prepass supplies a precomputed trace prepass (Prepare). It must
	// have been built from exactly this trace; replays under different
	// session sets and timing profiles can all share one prepass
	// (internal/exp caches it with the trace). Nil makes the engine
	// compute it on entry.
	Prepass *Prepass
}

// RunWithOptions replays the trace — or, with Options.Source, the
// streamed v3 trace — against the session set. Both sources produce
// bit-identical output.
//
// Replay entry is an injection point (fault.SiteSimReplay, keyed by
// program name); with no active chaos plan the check is one atomic
// load per replay, never per event.
func RunWithOptions(tr *trace.Trace, set *sessions.Set, o Options) (*Output, error) {
	out := &Output{Set: set}
	var s *trace.Stream
	events := 0
	switch {
	case o.Source != nil && tr != nil:
		return nil, fmt.Errorf("sim: both a materialised trace and a stream source supplied")
	case o.Source != nil && o.Prepass != nil:
		return nil, fmt.Errorf("sim: a prepass cannot drive a streamed replay")
	case o.Source != nil:
		var err error
		if s, err = o.Source.Open(); err != nil {
			return nil, fmt.Errorf("sim: opening trace stream: %w", err)
		}
		defer s.Close()
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
	var sp obsv.Span
	var start time.Time
	if o.Obs != nil {
		name := "replay-sequential"
		if s != nil {
			name = "replay-stream"
		}
		sp = o.Obs.StartSpan(name)
		sp.Attr("program", out.Program)
		sp.Int("sessions", int64(n))
		sp.Int("events", int64(events))
		start = time.Now()
	}
	defer sp.End()
	var pp *Prepass
	if tr != nil {
		var err error
		if pp, err = ensurePrepass(tr, o.Prepass, o.Obs); err != nil {
			return nil, err
		}
		out.TotalWrites = pp.TotalWrites
	}

	out.PerSession = make([]Counting, n)
	if n > 0 {
		var pages [2]pageTab
		if s == nil {
			replayPrepass(set, pp, out.PerSession, &pages)
		} else if err := replayStream(s, set, out.PerSession, &pages, o.Obs); err != nil {
			return nil, fmt.Errorf("sim: streaming %s: %w", out.Program, err)
		}
		spanTables(&sp, &pages)
	}
	if o.Obs != nil {
		if secs := time.Since(start).Seconds(); secs > 0 {
			sp.Float("events_per_sec", float64(events)/secs)
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

// replayPrepass is the in-memory front-end: it replays the prepass
// columns for every session of set, accumulating into per (parallel to
// set.Sessions) and the caller-owned page tables. The loop reads two
// int32 columns per event and performs no hashing, no search and no
// membership lookup: an install or remove walks its placement's slot
// lists (built the first time the replay meets the placement), a write
// bumps one counter per page size. The per-object event counts are
// credited to the member sessions once, at the end.
func replayPrepass(set *sessions.Set, pp *Prepass, per []Counting, pages *[2]pageTab) {
	var slots [2]int
	for i := range pp.placements {
		pl := &pp.placements[i]
		m := len(set.Membership(pl.obj))
		slots[0] += m * int(pl.n[0])
		slots[1] += m * int(pl.n[1])
	}
	for psi := range pages {
		pages[psi].init(pp.NumPages[psi], int32(len(pp.placements)), int32(len(per)), slots[psi])
	}
	var buf [16]int32
	ev1 := pp.evPage[1]
	w0, w1 := pages[0].wtotal, pages[1].wtotal
	for i, p := range pp.evPage[0] {
		switch kind := ev1[i]; kind {
		case evInstall, evRemove:
			if !pages[0].isBuilt(p) {
				buildPlacement(set, pages, p, &pp.placements[p], buf[:0])
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
	creditObjects(set, pp.objs, per)
}

// buildPlacement makes prepass placement p's slot list in both page
// tables, listing its consecutive dense pages in buf.
func buildPlacement(set *sessions.Set, pages *[2]pageTab, p int32, pl *placement, buf []int32) {
	members := set.Membership(pl.obj)
	for psi := range pages {
		ps := buf[:0]
		for k := int32(0); k < pl.n[psi]; k++ {
			ps = append(ps, pl.page[psi]+k)
		}
		pages[psi].build(p, members, ps)
	}
}

// creditObjects credits each object's counted installs, removes and
// hits to every session containing it: once per object, not once per
// event.
func creditObjects(set *sessions.Set, objs []objCount, per []Counting) {
	for obj, c := range objs {
		if c == (objCount{}) {
			continue
		}
		for _, s := range set.Membership(objects.ID(obj)) {
			per[s].Installs += c.installs
			per[s].Removes += c.removes
			per[s].Hits += c.hits
		}
	}
}

// tableKeys name the engine span attributes that report each page
// size's table: its placements (slot lists built) and entries.
var tableKeys = [2][2]string{{"placements_4k", "entries_4k"}, {"placements_8k", "entries_8k"}}

// spanTables reports the size of a replay's page tables on its span.
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
