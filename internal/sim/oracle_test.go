package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"edb/internal/arch"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// naiveReplay computes one session's counting variables the obvious way:
// replay the whole trace for that single session, tracking its active
// monitors directly. This is the |sessions| × |trace| algorithm the
// one-pass simulator exists to avoid; here it is the oracle.
func naiveReplay(tr *trace.Trace, s *sessions.Session) Counting {
	member := make(map[objects.ID]bool)
	for _, id := range s.Objects {
		member[id] = true
	}
	var c Counting
	type pageCount map[uint32]int
	pages := [2]pageCount{{}, {}}
	var active []arch.Range
	totalWrites := uint64(0)

	for _, e := range tr.Events {
		switch e.Kind {
		case trace.EvInstall:
			if !member[e.Obj] {
				continue
			}
			c.Installs++
			active = append(active, arch.Range{BA: e.BA, EA: e.EA})
			for psi, psz := range PageSizes {
				first, last := arch.PagesSpanned(e.BA, e.EA, psz)
				for pn := first; pn <= last; pn++ {
					pages[psi][pn]++
					if pages[psi][pn] == 1 {
						c.VM[psi].Protects++
					}
				}
			}
		case trace.EvRemove:
			if !member[e.Obj] {
				continue
			}
			c.Removes++
			want := arch.Range{BA: e.BA, EA: e.EA}
			for i := range active {
				if active[i] == want {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
			for psi, psz := range PageSizes {
				first, last := arch.PagesSpanned(e.BA, e.EA, psz)
				for pn := first; pn <= last; pn++ {
					pages[psi][pn]--
					if pages[psi][pn] == 0 {
						c.VM[psi].Unprotects++
					}
				}
			}
		case trace.EvWrite:
			totalWrites++
			hit := false
			for _, r := range active {
				if r.Overlaps(arch.Range{BA: e.BA, EA: e.EA}) {
					hit = true
					break
				}
			}
			if hit {
				c.Hits++
				continue
			}
			for psi, psz := range PageSizes {
				if pages[psi][arch.PageNum(e.BA, psz)] > 0 {
					c.VM[psi].ActivePageMiss++
				}
			}
		}
	}
	c.Misses = totalWrites - c.Hits
	return c
}

// randomTrace builds a small random—but structurally valid—trace:
// locals come and go in stack fashion, heap objects allocate and free,
// globals live forever, and writes target live objects or random
// addresses. Two of the globals deliberately straddle page boundaries —
// one crossing a 4 KiB boundary inside an 8 KiB page, one crossing both
// a 4 KiB and an 8 KiB boundary — and heap allocations occasionally
// exceed a page, so the differential suite covers monitors spanning
// pages for both simulated page sizes.
func randomTrace(seed int64, events int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tab := objects.NewTable()
	tr := &trace.Trace{Program: "random", Objects: tab, BaseCycles: 40_000_000}

	type liveObj struct {
		id objects.ID
		r  arch.Range
	}
	var live []liveObj
	var frames [][]liveObj // stack discipline for locals
	sp := arch.StackBase
	emit := func(e trace.Event) { tr.Events = append(tr.Events, e) }

	// A few globals, installed up front.
	for i := 0; i < 4; i++ {
		ba := arch.GlobalBase + arch.Addr(i*4096) + arch.Addr(rng.Intn(256)*4)
		r := arch.Range{BA: ba, EA: ba + arch.Addr(4*(1+rng.Intn(8)))}
		id := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g", SizeBytes: r.Len()})
		live = append(live, liveObj{id, r})
		emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
	}
	// Page-straddling globals (GlobalBase is 8 KiB aligned): one
	// crossing only a 4 KiB boundary, one crossing an 8 KiB boundary.
	for _, ba := range []arch.Addr{
		arch.GlobalBase + 5*8192 + 4096 - 8, // 4K boundary, mid-8K page
		arch.GlobalBase + 6*8192 - 8,        // both 4K and 8K boundary
	} {
		r := arch.Range{BA: ba, EA: ba + 16}
		id := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "gx", SizeBytes: r.Len()})
		live = append(live, liveObj{id, r})
		emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
	}
	funcs := []string{"f1", "f2", "f3"}
	heapNext := arch.HeapBase

	for len(tr.Events) < events {
		switch rng.Intn(10) {
		case 0, 1: // push a frame: 1-3 locals below the current stack top
			fn := funcs[rng.Intn(len(funcs))]
			var frame []liveObj
			for k := 0; k < 1+rng.Intn(3); k++ {
				sp -= arch.Addr(4 + 4*rng.Intn(3))
				r := arch.Range{BA: sp, EA: sp + 4}
				id := tab.Add(objects.Object{Kind: objects.KindLocalAuto, Func: fn, Name: "v", SizeBytes: 4})
				frame = append(frame, liveObj{id, r})
				live = append(live, liveObj{id, r})
				emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
			}
			frames = append(frames, frame)
		case 2: // heap allocation with a random context
			size := arch.Addr(8 * (1 + rng.Intn(6)))
			if rng.Intn(8) == 0 {
				// Occasionally a page-straddling block.
				size = arch.Addr(4096 + 8*(1+rng.Intn(4)))
			}
			r := arch.Range{BA: heapNext, EA: heapNext + size}
			heapNext += size + 8
			ctx := []string{"main", funcs[rng.Intn(len(funcs))]}
			id := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "h", SizeBytes: r.Len(), AllocCtx: ctx})
			live = append(live, liveObj{id, r})
			emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
		case 3: // pop the innermost frame (stack discipline)
			if len(frames) > 0 {
				frame := frames[len(frames)-1]
				frames = frames[:len(frames)-1]
				for i := len(frame) - 1; i >= 0; i-- {
					o := frame[i]
					sp = o.r.EA
					for j := range live {
						if live[j].id == o.id {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
					emit(trace.Event{Kind: trace.EvRemove, Obj: o.id, BA: o.r.BA, EA: o.r.EA})
				}
			}
		default: // write: half aimed at live objects, half random
			var ba arch.Addr
			if rng.Intn(2) == 0 && len(live) > 0 {
				o := live[rng.Intn(len(live))]
				ba = o.r.BA + arch.Addr(4*rng.Intn(o.r.Words()))
			} else {
				switch rng.Intn(3) {
				case 0:
					ba = arch.GlobalBase + arch.Addr(rng.Intn(3000)*4)
				case 1:
					ba = arch.HeapBase + arch.Addr(rng.Intn(3000)*4)
				default:
					ba = arch.StackBase - arch.Addr(rng.Intn(2000)*4) - 4
				}
			}
			emit(trace.Event{Kind: trace.EvWrite, BA: ba, EA: ba + 4, PC: arch.TextBase + arch.Addr(rng.Intn(100)*4)})
		}
	}
	// Tear down everything still live: frames innermost-first, then the
	// heap objects and globals.
	for len(frames) > 0 {
		frame := frames[len(frames)-1]
		frames = frames[:len(frames)-1]
		for i := len(frame) - 1; i >= 0; i-- {
			o := frame[i]
			for j := range live {
				if live[j].id == o.id {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
			emit(trace.Event{Kind: trace.EvRemove, Obj: o.id, BA: o.r.BA, EA: o.r.EA})
		}
	}
	for i := len(live) - 1; i >= 0; i-- {
		o := live[i]
		emit(trace.Event{Kind: trace.EvRemove, Obj: o.id, BA: o.r.BA, EA: o.r.EA})
	}
	return tr
}

// checkedTrace builds and validates a random trace.
func checkedTrace(t *testing.T, seed int64, events int) *trace.Trace {
	t.Helper()
	tr := randomTrace(seed, events)
	if err := tr.Validate(); err != nil {
		t.Fatalf("seed %d: invalid trace: %v", seed, err)
	}
	if err := tr.ValidateExclusive(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return tr
}

// sequential and sharded replay tr in memory through the one driver,
// in one inline pass and over k session shards.
func sequential(tr *trace.Trace, set *sessions.Set) (*Output, error) {
	return RunWithOptions(tr, set, Options{Shards: 1})
}

func sharded(tr *trace.Trace, set *sessions.Set, k int) (*Output, error) {
	return RunWithOptions(tr, set, Options{Shards: k})
}

// shardCounts returns the shard counts the differential suite must
// prove equivalent: the fixed set {1, 2, 3, 8} plus NumCPU.
func shardCounts() []int {
	ks := []int{1, 2, 3, 8, runtime.NumCPU()}
	seen := make(map[int]bool)
	var out []int
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestOnePassMatchesNaiveOracle is the central correctness property of
// phase 2: for random traces, the auto-selected simulator's counting
// variables equal a per-session naive replay, for every session.
func TestOnePassMatchesNaiveOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tr := checkedTrace(t, seed, 1500)
		set := sessions.Discover(tr)
		out, err := RunWithOptions(tr, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range set.Sessions {
			s := &set.Sessions[i]
			want := naiveReplay(tr, s)
			got := out.PerSession[i]
			if got != want {
				t.Errorf("seed %d session %s:\n  one-pass %+v\n  oracle   %+v",
					seed, s.Label(), got, want)
			}
		}
	}
}

// reinstallTrace builds a trace whose local v is re-installed, frame
// after frame, at three alternating spans: inside one 4 KiB page,
// across a 4 KiB boundary inside one 8 KiB page, and across an 8 KiB
// boundary. Its placement chain so holds three entries, and every
// lookup after the first three walks it. A second local of the same
// function (so AllLocalInFunc shares pages with v's own session), a
// global on the boundary page, and writes on, beside and away from v
// keep the page counters moving while v is live and while it is not.
func reinstallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tab := objects.NewTable()
	v := tab.Add(objects.Object{Kind: objects.KindLocalAuto, Func: "f", Name: "v", SizeBytes: 16})
	w := tab.Add(objects.Object{Kind: objects.KindLocalAuto, Func: "f", Name: "w", SizeBytes: 4})
	g := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g", SizeBytes: 4})
	tr := &trace.Trace{Program: "reinstall", Objects: tab, BaseCycles: 40_000_000}
	ev := func(k trace.EventKind, obj objects.ID, ba, ea arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: k, Obj: obj, BA: ba, EA: ea})
	}
	write := func(ba arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.EvWrite, BA: ba, EA: ba + 4, PC: arch.TextBase})
	}
	s0 := (arch.StackBase - 64*1024) &^ 8191 // an 8 KiB-aligned stack page
	spans := []arch.Addr{
		s0 + 0x200,      // one 4 KiB page
		s0 + 4096 - 8,   // 4 KiB boundary inside one 8 KiB page
		s0 + 2*8192 - 8, // 8 KiB (and 4 KiB) boundary
	}
	gba := s0 + 4096 + 0x100 // on the upper half of span 1's 8 KiB page
	ev(trace.EvInstall, g, gba, gba+4)
	for round := 0; round < 24; round++ {
		ba := spans[round%len(spans)]
		write(ba) // before v is live on the page
		ev(trace.EvInstall, v, ba, ba+16)
		withW := round%2 == 0
		if withW {
			ev(trace.EvInstall, w, s0+0x400, s0+0x404)
		}
		for k := arch.Addr(0); k < 16; k += 4 {
			write(ba + k) // hits, on both sides of a boundary
		}
		write(ba - 4)      // beside v: an active-page miss
		write(gba)         // the global's hit, on v's 8 KiB page
		write(s0 + 0x404)  // beside w
		write(s0 + 7*4096) // far away
		if withW {
			ev(trace.EvRemove, w, s0+0x400, s0+0x404)
		}
		ev(trace.EvRemove, v, ba, ba+16)
		write(ba + 8) // after v is gone
	}
	ev(trace.EvRemove, g, gba, gba+4)
	if err := tr.Validate(); err != nil {
		t.Fatalf("reinstall trace: %v", err)
	}
	if err := tr.ValidateExclusive(); err != nil {
		t.Fatalf("reinstall trace: %v", err)
	}
	pp, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pl := range pp.placements {
		if pl.obj == v {
			n++
		}
	}
	if n != len(spans) {
		t.Fatalf("reinstall trace: v has %d placements, want %d", n, len(spans))
	}
	return tr
}

// TestDifferentialSerialShardedNaive is the differential harness for
// the sharded engine and both front-ends: on randomized traces of
// varying sizes and on reinstallTrace, the Sequential replay, the
// Sharded replay at every tested shard count, the streamed replay of
// the trace's v3 bytes at every tested shard count, and the naive
// per-session oracle must agree exactly — counting variables, total
// writes, and header metadata.
func TestDifferentialSerialShardedNaive(t *testing.T) {
	cases := []struct {
		seed   int64
		events int
	}{
		{1, 200}, {2, 600}, {3, 1500}, {4, 1500},
		{5, 2500}, {6, 1500}, {7, 900}, {8, 4000},
		{9, 3000}, {10, 1200},
	}
	type input struct {
		label string
		tr    *trace.Trace
	}
	var inputs []input
	for _, tc := range cases {
		inputs = append(inputs, input{fmt.Sprintf("seed %d", tc.seed), checkedTrace(t, tc.seed, tc.events)})
	}
	inputs = append(inputs, input{"reinstall", reinstallTrace(t)})
	for _, in := range inputs {
		tr := in.tr
		set := sessions.Discover(tr)
		seq, err := sequential(tr, set)
		if err != nil {
			t.Fatal(err)
		}
		// Sequential ≡ naive oracle, per session.
		for i := range set.Sessions {
			if want := naiveReplay(tr, &set.Sessions[i]); seq.PerSession[i] != want {
				t.Errorf("%s session %s: sequential %+v != oracle %+v",
					in.label, set.Sessions[i].Label(), seq.PerSession[i], want)
			}
		}
		// Sequential ≡ Sharded ≡ Streamed, for every shard count.
		src := v3Source(t, tr, 64)
		for _, k := range shardCounts() {
			sh, err := sharded(tr, set, k)
			if err != nil {
				t.Fatal(err)
			}
			st, err := streamed(src, set, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				engine string
				out    *Output
			}{{"sharded", sh}, {"streamed", st}} {
				out := got.out
				if out.Program != seq.Program || out.BaseCycles != seq.BaseCycles ||
					out.TotalWrites != seq.TotalWrites || out.Set != seq.Set {
					t.Errorf("%s K=%d %s: header mismatch: %+v vs %+v", in.label, k, got.engine, out, seq)
				}
				if len(out.PerSession) != len(seq.PerSession) {
					t.Fatalf("%s K=%d %s: %d sessions, want %d",
						in.label, k, got.engine, len(out.PerSession), len(seq.PerSession))
				}
				for i := range seq.PerSession {
					if out.PerSession[i] != seq.PerSession[i] {
						t.Errorf("%s K=%d session %s:\n  %-10s %+v\n  sequential %+v",
							in.label, k, set.Sessions[i].Label(), got.engine, out.PerSession[i], seq.PerSession[i])
					}
				}
			}
		}
	}
}

// TestRandomTraceStraddlesPages pins the coverage claim of the
// differential suite: the generated traces really do contain monitors
// spanning a 4 KiB boundary and monitors spanning an 8 KiB boundary.
func TestRandomTraceStraddlesPages(t *testing.T) {
	tr := checkedTrace(t, 1, 1500)
	var straddle4k, straddle8k bool
	for _, e := range tr.Events {
		if e.Kind != trace.EvInstall {
			continue
		}
		if f, l := arch.PagesSpanned(e.BA, e.EA, arch.PageSize4K); f != l {
			straddle4k = true
		}
		if f, l := arch.PagesSpanned(e.BA, e.EA, arch.PageSize8K); f != l {
			straddle8k = true
		}
	}
	if !straddle4k || !straddle8k {
		t.Fatalf("trace lacks page-straddling monitors: 4K=%v 8K=%v", straddle4k, straddle8k)
	}
}

// TestShardedDegenerate covers the clamping edges: more shards than
// sessions, zero/negative shard counts, and an empty session set.
func TestShardedDegenerate(t *testing.T) {
	tr := checkedTrace(t, 3, 400)
	set := sessions.Discover(tr)
	seq, err := sequential(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 0, len(set.Sessions) + 50, 10_000} {
		sh, err := sharded(tr, set, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.PerSession {
			if sh.PerSession[i] != seq.PerSession[i] {
				t.Fatalf("K=%d session %d: %+v != %+v", k, i, sh.PerSession[i], seq.PerSession[i])
			}
		}
	}
	empty := sessions.NewSet(nil, tr.Objects.Len())
	sh, err := sharded(tr, empty, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.PerSession) != 0 || sh.TotalWrites == 0 {
		t.Errorf("empty set: PerSession=%d TotalWrites=%d", len(sh.PerSession), sh.TotalWrites)
	}
}

// TestShardedRejectsBadTrace propagates the producer pass's event-kind
// validation.
func TestShardedRejectsBadTrace(t *testing.T) {
	tr := checkedTrace(t, 2, 200)
	tr.Events = append(tr.Events, trace.Event{Kind: trace.EventKind(77)})
	set := sessions.Discover(tr)
	if _, err := sharded(tr, set, 2); err == nil {
		t.Error("bad event kind should fail")
	}
	if _, err := sequential(tr, set); err == nil {
		t.Error("bad event kind should fail sequentially too")
	}
}
