package debug

import (
	"testing"
)

const ctrlProg = `
int counter = 0;
int table[4];
int step(int i) {
	counter = counter + i;
	table[i & 3] = counter;
	return counter;
}
int main() {
	int i;
	for (i = 1; i <= 5; i = i + 1) { step(i); }
	print(counter);
	return 0;
}
`

func TestRunUntilBreakSuspends(t *testing.T) {
	for _, strat := range Strategies {
		strat := strat
		t.Run(string(strat), func(t *testing.T) {
			s, err := LaunchWith(ctrlProg, strat, LaunchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.BreakOnData("counter"); err != nil {
				t.Fatal(err)
			}
			// counter is written 5 times; we should be able to stop at
			// each write and watch the running sum 1, 3, 6, 10, 15.
			want := []int32{1, 3, 6, 10, 15}
			for _, w := range want {
				hits, state, err := s.RunUntilBreak(1_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if state != Broke {
					t.Fatalf("state = %v, want breakpoint", state)
				}
				if len(hits) != 1 {
					t.Fatalf("hits = %d", len(hits))
				}
				// The machine is suspended right after the store: the
				// value is in place.
				got, err := s.ReadSymbol("counter")
				if err != nil {
					t.Fatal(err)
				}
				if got != w {
					t.Errorf("counter = %d at break, want %d", got, w)
				}
				if hits[0].Value != w {
					t.Errorf("hit value = %d, want %d", hits[0].Value, w)
				}
			}
			// Next resume runs to completion.
			_, state, err := s.RunUntilBreak(1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if state != Exited {
				t.Errorf("final state = %v, want exited", state)
			}
		})
	}
}

func TestWhereDuringBreak(t *testing.T) {
	s, _ := LaunchWith(ctrlProg, CodePatch, LaunchConfig{})
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	_, state, err := s.RunUntilBreak(1_000_000)
	if err != nil || state != Broke {
		t.Fatalf("state=%v err=%v", state, err)
	}
	_, fn := s.Where()
	if fn != "step" {
		t.Errorf("suspended in %q, want step", fn)
	}
}

func TestReadSymbolIndex(t *testing.T) {
	s, _ := LaunchWith(ctrlProg, TrapPatch, LaunchConfig{})
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// After the run: table[1]=1 (i=1), table[2]=3, table[3]=6, table[0]=10... then i=5: table[1]=15.
	v, err := s.ReadSymbolIndex("table", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 15 {
		t.Errorf("table[1] = %d, want 15", v)
	}
	if _, err := s.ReadSymbolIndex("table", 9); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := s.ReadSymbol("ghost"); err == nil {
		t.Error("unknown symbol should fail")
	}
}

func TestOutOfFuel(t *testing.T) {
	s, _ := LaunchWith(ctrlProg, CodePatch, LaunchConfig{})
	_, state, err := s.RunUntilBreak(10) // far too little
	if err != nil {
		t.Fatal(err)
	}
	if state != OutOfFuel {
		t.Errorf("state = %v, want out of fuel", state)
	}
	// Resumable.
	if _, state, _ := s.RunUntilBreak(1_000_000); state != Exited {
		t.Errorf("resume state = %v", state)
	}
}

func TestDataSymbolsSorted(t *testing.T) {
	s, _ := LaunchWith(ctrlProg, CodePatch, LaunchConfig{})
	syms := s.DataSymbols()
	if len(syms) != 2 {
		t.Fatalf("symbols = %v", syms)
	}
	// counter declared first → lower address.
	if syms[0] != "counter" || syms[1] != "table" {
		t.Errorf("order = %v", syms)
	}
}

func TestBreakStateString(t *testing.T) {
	for _, st := range []BreakState{Broke, Exited, OutOfFuel} {
		if st.String() == "" {
			t.Error("empty state name")
		}
	}
}

// TestLiveWatchMidRun: the Watch/Unwatch control verbs mutate the watch
// set of a *suspended* debuggee — the incremental re-patching case. The
// session watches counter, breaks on its first write, grows the set
// with table while suspended, shrinks it again later, and the hit log
// shows exactly the writes each window covered.
func TestLiveWatchMidRun(t *testing.T) {
	for _, strat := range Strategies {
		strat := strat
		t.Run(string(strat), func(t *testing.T) {
			s, err := LaunchWith(ctrlProg, strat, LaunchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Watch("counter"); err != nil {
				t.Fatal(err)
			}
			// Break at counter's first write (i=1), then grow the watch
			// set mid-run.
			if _, state, err := s.RunUntilBreak(1_000_000); err != nil || state != Broke {
				t.Fatalf("state=%v err=%v", state, err)
			}
			if _, err := s.Watch("table"); err != nil {
				t.Fatal(err)
			}
			// Two more breaks: table[1] (same iteration) and counter (i=2).
			for i := 0; i < 2; i++ {
				if _, state, err := s.RunUntilBreak(1_000_000); err != nil || state != Broke {
					t.Fatalf("break %d: state=%v err=%v", i, state, err)
				}
			}
			// Shrink mid-run: no more counter breaks, table still fires.
			if err := s.Unwatch("counter"); err != nil {
				t.Fatal(err)
			}
			hits, state, err := s.RunUntilBreak(1_000_000)
			if err != nil || state != Broke {
				t.Fatalf("state=%v err=%v", state, err)
			}
			if hits[0].Breakpoint != "table" {
				t.Errorf("post-unwatch break on %q, want table", hits[0].Breakpoint)
			}
			if err := s.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if got := s.Output(); got != "15\n" {
				t.Errorf("output %q, want 15", got)
			}
			// CodePatch sessions run every mutation through the engine.
			if eng := s.Engine(); eng != nil {
				if eng.Stats.Installs != 2 || eng.Stats.Removes != 1 {
					t.Errorf("engine stats %+v, want 2 installs / 1 remove", eng.Stats)
				}
				if vs := eng.Verify(); len(vs) != 0 {
					t.Errorf("post-run image fails verification: %v", vs[0])
				}
			} else if strat == CodePatch || strat == CodePatchOpt {
				t.Error("code strategy session has no engine")
			}
		})
	}
}

// TestRewriteStoreVerb: the self-modifying-code control verb. Only the
// CodePatch strategies own their text; rewriting step's table store
// mid-run shifts which slot the remaining iterations update, and the
// engine re-proves soundness after the edit.
func TestRewriteStoreVerb(t *testing.T) {
	for _, strat := range []Strategy{NativeHardware, VirtualMemory, TrapPatch} {
		s, err := LaunchWith(ctrlProg, strat, LaunchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RewriteStore("step", 2, 4); err == nil {
			t.Errorf("%s: RewriteStore accepted without an engine", strat)
		}
	}
	for _, strat := range []Strategy{CodePatch, CodePatchOpt} {
		strat := strat
		t.Run(string(strat), func(t *testing.T) {
			s, err := LaunchWith(ctrlProg, strat, LaunchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Watch("counter"); err != nil {
				t.Fatal(err)
			}
			// Suspend at the first counter write, then retarget step's
			// table store (ordinal 2: one param spill, counter, table)
			// one slot up while the CPU is paused on it.
			if _, state, err := s.RunUntilBreak(1_000_000); err != nil || state != Broke {
				t.Fatalf("state=%v err=%v", state, err)
			}
			if err := s.RewriteStore("step", 2, 4); err != nil {
				t.Fatal(err)
			}
			if s.Engine().Stats.Rewrites != 1 {
				t.Errorf("Rewrites = %d, want 1", s.Engine().Stats.Rewrites)
			}
			if vs := s.Engine().Verify(); len(vs) != 0 {
				t.Fatalf("post-rewrite image fails verification: %v", vs[0])
			}
			if err := s.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			// counter's arithmetic is untouched by the table retarget.
			if got := s.Output(); got != "15\n" {
				t.Errorf("output %q, want 15", got)
			}
			// table[i&3] became table[(i&3)+1]: i=4 wrote slot 1's old
			// home... the shifted slot of the final write (i=5) is 2.
			v, err := s.ReadSymbolIndex("table", 2)
			if err != nil {
				t.Fatal(err)
			}
			if v != 15 {
				t.Errorf("shifted table slot = %d, want 15", v)
			}
		})
	}
}
