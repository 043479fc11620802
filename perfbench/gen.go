package main

// Seeded input generators. Every workload's inputs come from here and
// depend only on the seed and on facts read from the programs
// themselves (session totals, symbol tables), so the same seed always
// yields the same inputs, and the program under test sees only the
// generated inputs, never the seed.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"edb/internal/model"
	"edb/internal/serve"
)

// ---- paper: timing profiles ------------------------------------------

// profileVariant scales every Table 2 timing variable of the paper
// profile by its own factor in [0.5, 2), log-uniformly. Counting
// variables do not depend on the profile, so every variant must
// reproduce the cold run's counts exactly.
func profileVariant(rng *rand.Rand) model.Timings {
	f := func(v float64) float64 {
		return v * math.Exp2(rng.Float64()*2-1)
	}
	p := model.Paper
	return model.Timings{
		SoftwareUpdate: f(p.SoftwareUpdate),
		SoftwareLookup: f(p.SoftwareLookup),
		NHFaultHandler: f(p.NHFaultHandler),
		VMFaultHandler: f(p.VMFaultHandler),
		VMProtect:      f(p.VMProtect),
		VMUnprotect:    f(p.VMUnprotect),
		TPFaultHandler: f(p.TPFaultHandler),
	}
}

// ---- serve-mix: the request list -------------------------------------

// reqClass is one class of serve-mix request.
type reqClass int

const (
	// classHit repeats an earlier question hash-first: a store read
	// plus the response.
	classHit reqClass = iota
	// classMiss asks a new question: the hash-only probe 404s and the
	// full trace is uploaded, decoded, replayed and stored.
	classMiss
	// classMutate grows the watch set of an earlier question through
	// POST /v1/session with the full trace.
	classMutate
	numClasses
)

func (c reqClass) String() string {
	switch c {
	case classHit:
		return "hit"
	case classMiss:
		return "miss"
	default:
		return "mutate"
	}
}

// blockMix is the class make-up of every block of 20 requests: about
// 75% repeats, 15% new questions, 10% mutations. Fixing the counts per
// block (and shuffling only the order) keeps the mix of a run — and so
// its throughput — nearly the same for every seed.
var blockMix = [numClasses]int{classHit: 15, classMiss: 3, classMutate: 2}

// question is one replay question: a program and a session selection.
type question struct {
	prog  int // index into the serve-mix program list
	spec  serve.SessionSpec
	size  int // sessions the spec selects
	level int // sizeLadder rung it was drawn from (a mutation: its base's)
}

// key identifies a question (program plus canonical selection).
func (q *question) key() string {
	return fmt.Sprintf("%d|%v", q.prog, q.spec.Indices)
}

// serveReq is one request of the list.
type serveReq struct {
	class  reqClass
	tenant string
	q      question
	// base is the earlier question a mutation grows (nil otherwise).
	base *serve.SessionSpec
}

// sizeLadder is the ladder of session fractions new questions draw
// from: each program takes every rung once, in a fresh seeded order,
// before it takes any again, so its new questions span "a few
// sessions" to "all of them" evenly.
var sizeLadder = []float64{1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0 / 2, 1}

// genRequests builds the first n requests of the seeded list over
// programs with the given discovered session totals.
func genRequests(seed int64, totals []int, n int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	g := &reqGen{rng: rng, totals: totals, seen: make(map[string]bool),
		ladders: make([][]int, len(totals)), allAsked: make([]bool, len(totals)),
		bases:   make([][]question, len(totals)),
		buckets: make([][]question, len(totals)*len(sizeLadder)),
		cycle:   rng.Perm(len(totals) * len(sizeLadder))}
	var out []serveReq
	for len(out) < n {
		var block []reqClass
		for c := reqClass(0); c < numClasses; c++ {
			for i := 0; i < blockMix[c]; i++ {
				block = append(block, c)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		// One new question per program per block, in seeded order.
		progOrder := rng.Perm(len(totals))
		nextMiss := 0
		for _, c := range block {
			var r serveReq
			switch {
			case c == classHit && g.asked > 0:
				r = serveReq{class: classHit, q: g.repeat()}
			case c == classMutate && g.canMutate():
				r = g.mutation()
			default:
				p := progOrder[nextMiss%len(progOrder)]
				nextMiss++
				r = serveReq{class: classMiss, q: g.newQuestion(p)}
			}
			r.tenant = []string{"tenant-a", "tenant-b"}[rng.Intn(2)]
			out = append(out, r)
		}
	}
	return out[:n]
}

type reqGen struct {
	rng      *rand.Rand
	totals   []int
	seen     map[string]bool
	asked    int          // questions asked so far
	bases    [][]question // per program: questions a mutation may grow
	ladders  [][]int      // per program: sizeLadder rungs left this cycle
	allAsked []bool
	mutCount int
	// buckets holds the asked questions by (program, rung); repeats
	// visit the buckets in a fixed seeded cycle, so every seed repeats
	// small and large answers in the same proportions.
	buckets [][]question
	cycle   []int
	hitPos  int
}

// repeat picks an earlier question from the next non-empty bucket of
// the cycle.
func (g *reqGen) repeat() question {
	for {
		b := g.buckets[g.cycle[g.hitPos%len(g.cycle)]]
		g.hitPos++
		if len(b) > 0 {
			return b[g.rng.Intn(len(b))]
		}
	}
}

// newQuestion draws a question for program p that was never asked.
func (g *reqGen) newQuestion(p int) question {
	total := g.totals[p]
	if len(g.ladders[p]) == 0 {
		g.ladders[p] = g.rng.Perm(len(sizeLadder))
	}
	level := g.ladders[p][0]
	g.ladders[p] = g.ladders[p][1:]
	size := int(sizeLadder[level]*float64(total) + 0.5)
	if size < 2 {
		size = 2
	}
	if size > total {
		size = total
	}
	for try := 1; ; try++ {
		if size == total && g.allAsked[p] {
			size = total - 1
		}
		if try%16 == 0 && size > 2 {
			// This size is crowded (a small program asked often):
			// step down until a new selection turns up.
			size--
		}
		q := question{prog: p, size: size, level: level}
		if size < total { // else the zero spec: every discovered session
			q.spec = serve.SessionSpec{Indices: sortedPrefix(g.rng.Perm(total), size)}
		}
		if !g.seen[q.key()] {
			g.record(q, size < total)
			return q
		}
	}
}

func (g *reqGen) record(q question, growable bool) {
	g.seen[q.key()] = true
	if q.size == g.totals[q.prog] {
		g.allAsked[q.prog] = true
	}
	g.asked++
	b := q.prog*len(sizeLadder) + q.level
	g.buckets[b] = append(g.buckets[b], q)
	if growable {
		g.bases[q.prog] = append(g.bases[q.prog], q)
	}
}

func (g *reqGen) canMutate() bool {
	for _, b := range g.bases {
		if len(b) > 0 {
			return true
		}
	}
	return false
}

// mutation grows an earlier question by one to eight sessions it did
// not select. Programs take turns, so each gets a third of the
// mutations.
func (g *reqGen) mutation() serveReq {
	p := g.mutCount % len(g.totals)
	g.mutCount++
	for len(g.bases[p]) == 0 {
		p = (p + 1) % len(g.totals)
	}
	for try := 0; ; try++ {
		if try == 64 {
			// Every draw repeated an earlier question (possible only
			// for a tiny program); ask a new one instead.
			return serveReq{class: classMiss, q: g.newQuestion(p)}
		}
		base := g.bases[p][g.rng.Intn(len(g.bases[p]))]
		total := g.totals[p]
		in := make(map[int]bool, len(base.spec.Indices))
		for _, i := range base.spec.Indices {
			in[i] = true
		}
		grow := 1 + g.rng.Intn(8)
		if free := total - base.size; grow > free {
			grow = free
		}
		idx := append([]int(nil), base.spec.Indices...)
		for _, i := range g.rng.Perm(total) {
			if grow == 0 {
				break
			}
			if !in[i] {
				idx = append(idx, i)
				grow--
			}
		}
		sort.Ints(idx)
		target := question{prog: p, size: len(idx), level: base.level, spec: serve.SessionSpec{Indices: idx}}
		if len(idx) == total {
			target.spec = serve.SessionSpec{} // grown to everything
		}
		if g.seen[target.key()] {
			continue
		}
		g.record(target, len(idx) < total)
		bs := base.spec
		return serveReq{class: classMutate, q: target, base: &bs}
	}
}

func sortedPrefix(perm []int, n int) []int {
	out := append([]int(nil), perm[:n]...)
	sort.Ints(out)
	return out
}

// ---- debug-live: the session scripts ---------------------------------

// progSymbols is what a script may refer to in one program, read from
// its compiled image.
type progSymbols struct {
	name    string
	globals []string   // data symbols (globals and function statics)
	locals  []localRef // automatic variables, by function
	stores  []storeRef // non-implicit stores, by function and ordinal
}

type localRef struct{ fn, name string }

func (l localRef) String() string { return l.fn + "." + l.name }

type storeRef struct {
	fn      string
	ordinal int
}

// script is one scripted debugger session over one program.
type script struct {
	prog    string
	globals []string   // watched from the start
	locals  []localRef // watched from the start (two)
	// swapIn lists the globals swapped in, one every swapEvery breaks,
	// each replacing the longest-watched global.
	swapIn []string
	// rewrite is the store toggled by +4 and back before the first
	// continue, which leaves the program's behaviour intact.
	rewrite storeRef
}

const (
	// swapEvery is the break interval between global swaps.
	swapEvery = 64
	// maxBreaks bounds the breaks a session steps through; past it the
	// script drops every watch and lets the program run to its exit.
	maxBreaks = 1024
	// localInstallCap bounds the monitor installs the script's local
	// watches may cause; a local whose function is that hot is dropped
	// at the next stop.
	localInstallCap = 2048
	// fuelSlice is how many instructions one continue runs at most
	// before the script looks at its caps again.
	fuelSlice = 1 << 20
)

// genScript builds the round's script for one program.
func genScript(seed int64, round int, ps *progSymbols) script {
	h := int64(0)
	for _, c := range ps.name {
		h = h*31 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)*7919 + h))
	perm := rng.Perm(len(ps.globals))
	s := script{prog: ps.name}
	nWatch := 3
	if nWatch > len(perm) {
		nWatch = len(perm)
	}
	for _, i := range perm[:nWatch] {
		s.globals = append(s.globals, ps.globals[i])
	}
	for _, i := range perm[nWatch:] {
		s.swapIn = append(s.swapIn, ps.globals[i])
	}
	for _, i := range rng.Perm(len(ps.locals))[:min(2, len(ps.locals))] {
		s.locals = append(s.locals, ps.locals[i])
	}
	s.rewrite = ps.stores[rng.Intn(len(ps.stores))]
	return s
}
