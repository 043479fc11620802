package main

import (
	"math/rand"
	"reflect"
	"testing"

	"edb/internal/model"
)

// testTotals are the discovered session totals of bps, qcd and gcc at
// scale 1.
var testTotals = []int{3363, 42, 1613}

func TestGenRequestsDeterministic(t *testing.T) {
	a := genRequests(7, testTotals, 2000)
	b := genRequests(7, testTotals, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different request lists")
	}
	if reflect.DeepEqual(a, genRequests(8, testTotals, 2000)) {
		t.Fatal("different seeds gave the same request list")
	}
}

func TestGenRequestsMixAndCoverage(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		list := genRequests(seed, testTotals, 4000)
		if len(list) != 4000 {
			t.Fatalf("seed %d: %d requests, want 4000", seed, len(list))
		}
		if list[0].class != classMiss {
			t.Fatalf("seed %d: first request is a %s, want a new question", seed, list[0].class)
		}
		asked := make(map[string]bool)
		var perClass [numClasses]int
		perBucket := make(map[int]int) // repeats by (program, rung), once all exist
		tenants := make(map[string]bool)
		missByProg := make([]int, len(testTotals))
		mutByProg := make([]int, len(testTotals))
		for i, r := range list {
			perClass[r.class]++
			tenants[r.tenant] = true
			k := r.q.key()
			switch r.class {
			case classHit:
				if !asked[k] {
					t.Fatalf("seed %d request %d: repeat of a question never asked", seed, i)
				}
				if i >= 400 {
					perBucket[r.q.prog*len(sizeLadder)+r.q.level]++
				}
			case classMiss:
				if asked[k] {
					t.Fatalf("seed %d request %d: new question asked before", seed, i)
				}
				missByProg[r.q.prog]++
			case classMutate:
				if asked[k] {
					t.Fatalf("seed %d request %d: mutation target asked before", seed, i)
				}
				if r.base == nil || !asked[(&question{prog: r.q.prog, spec: *r.base}).key()] {
					t.Fatalf("seed %d request %d: mutation grows no earlier question", seed, i)
				}
				if !subset(r.base.Indices, r.q.spec.Indices) && r.q.spec.Indices != nil {
					t.Fatalf("seed %d request %d: mutation does not grow its base", seed, i)
				}
				mutByProg[r.q.prog]++
			}
			if r.class != classHit {
				asked[k] = true
			}
		}
		// Every block of 20 holds 15 repeats, 3 new questions and 2
		// mutations (the first block's leading repeats and mutations
		// become new questions until there is something to repeat).
		if perClass[classHit] < 2950 || perClass[classMiss] < 600 || perClass[classMutate] < 390 {
			t.Fatalf("seed %d: class counts %v, want about 3000/600/400", seed, perClass)
		}
		// Repeats visit every (program, rung) bucket in turn.
		lo, hi := len(list), 0
		for b := 0; b < len(testTotals)*len(sizeLadder); b++ {
			lo, hi = min(lo, perBucket[b]), max(hi, perBucket[b])
		}
		if hi-lo > 1 {
			t.Fatalf("seed %d: repeats per bucket range over [%d, %d]", seed, lo, hi)
		}
		if len(tenants) != 2 {
			t.Fatalf("seed %d: %d tenants, want 2", seed, len(tenants))
		}
		for p := range testTotals {
			if missByProg[p] < 150 || mutByProg[p] < 100 {
				t.Fatalf("seed %d program %d: %d new questions, %d mutations", seed, p, missByProg[p], mutByProg[p])
			}
		}
	}
}

func subset(small, big []int) bool {
	in := make(map[int]bool, len(big))
	for _, i := range big {
		in[i] = true
	}
	for _, i := range small {
		if !in[i] {
			return false
		}
	}
	return len(big) > len(small)
}

func TestGenScriptDeterministicAndCovering(t *testing.T) {
	_, syms, err := debugSetup()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range syms {
		a, b := genScript(3, 0, ps), genScript(3, 0, ps)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed and round gave two scripts", ps.name)
		}
		if reflect.DeepEqual(a, genScript(3, 1, ps)) && reflect.DeepEqual(a, genScript(4, 0, ps)) {
			t.Fatalf("%s: script ignores its seed and round", ps.name)
		}
		// Every watch kind: globals from the start, two locals, globals
		// to swap in, and a store to rewrite.
		if len(a.globals) != 3 || len(a.locals) != 2 || len(a.swapIn) == 0 || a.rewrite.fn == "" {
			t.Fatalf("%s: script lacks a watch kind: %+v", ps.name, a)
		}
		for _, g := range a.swapIn {
			if contains(a.globals, g) {
				t.Fatalf("%s: %s is both watched and swapped in", ps.name, g)
			}
		}
	}
}

func TestProfileVariant(t *testing.T) {
	a := profileVariant(rand.New(rand.NewSource(5)))
	b := profileVariant(rand.New(rand.NewSource(5)))
	if a != b {
		t.Fatal("same seed gave two profiles")
	}
	p := model.Paper
	pairs := [][2]float64{
		{a.SoftwareUpdate, p.SoftwareUpdate}, {a.SoftwareLookup, p.SoftwareLookup},
		{a.NHFaultHandler, p.NHFaultHandler}, {a.VMFaultHandler, p.VMFaultHandler},
		{a.VMProtect, p.VMProtect}, {a.VMUnprotect, p.VMUnprotect}, {a.TPFaultHandler, p.TPFaultHandler},
	}
	for _, v := range pairs {
		if f := v[0] / v[1]; f < 0.5 || f >= 2 {
			t.Fatalf("factor %v outside [0.5, 2)", f)
		}
	}
}
