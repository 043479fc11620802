package debug

import (
	"strings"
	"testing"

	"edb/internal/arch"
)

const testProg = `
int counter = 0;
int shadow = 0;

int bump() { counter = counter + 1; return counter; }
int sneak() { shadow = shadow + 1; counter = counter + 10; return 0; }
int main() {
	int i;
	for (i = 0; i < 3; i = i + 1) { bump(); }
	sneak();
	print(counter);
	return 0;
}
`

func launch(t *testing.T, strat Strategy) *Session {
	t.Helper()
	s, err := LaunchWith(testProg, strat, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllStrategiesCatchWrites(t *testing.T) {
	for _, strat := range Strategies {
		strat := strat
		t.Run(string(strat), func(t *testing.T) {
			s := launch(t, strat)
			if _, err := s.BreakOnData("counter"); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			hits := s.Hits()
			if len(hits) != 4 { // 3 bumps + 1 sneak
				t.Fatalf("hits = %d, want 4", len(hits))
			}
			byFunc := map[string]int{}
			for _, h := range hits {
				byFunc[h.Func]++
				if h.Breakpoint != "counter" {
					t.Errorf("hit attributed to %q", h.Breakpoint)
				}
			}
			if byFunc["bump"] != 3 || byFunc["sneak"] != 1 {
				t.Errorf("attribution = %v", byFunc)
			}
			if !strings.Contains(s.Output(), "13") {
				t.Errorf("program output = %q", s.Output())
			}
		})
	}
}

func TestBreakOnUnknownSymbol(t *testing.T) {
	s := launch(t, CodePatch)
	if _, err := s.BreakOnData("nonexistent"); err == nil {
		t.Error("unknown symbol should fail")
	}
}

func TestDuplicateBreakpoint(t *testing.T) {
	s := launch(t, CodePatch)
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnData("counter"); err == nil {
		t.Error("duplicate breakpoint should fail")
	}
}

func TestClear(t *testing.T) {
	s := launch(t, CodePatch)
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear("counter"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.Hits()) != 0 {
		t.Errorf("hits after clear = %d", len(s.Hits()))
	}
	if err := s.Clear("counter"); err == nil {
		t.Error("double clear should fail")
	}
}

func TestMultipleBreakpoints(t *testing.T) {
	s := launch(t, CodePatch)
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnData("shadow"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	bps := s.Breakpoints()
	if len(bps) != 2 {
		t.Fatalf("breakpoints = %d", len(bps))
	}
	// Sorted by name: counter, shadow.
	if bps[0].Name != "counter" || bps[1].Name != "shadow" {
		t.Errorf("order = %s, %s", bps[0].Name, bps[1].Name)
	}
	if bps[0].Hits != 4 || bps[1].Hits != 1 {
		t.Errorf("hit counts = %d, %d", bps[0].Hits, bps[1].Hits)
	}
}

func TestHardwareRegisterExhaustion(t *testing.T) {
	s := launch(t, NativeHardware)
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnData("shadow"); err != nil {
		t.Fatal(err)
	}
	base := arch.GlobalBase
	n := 2
	for i := 0; i < 10; i++ {
		_, err := s.BreakOnRange(
			string(rune('a'+i)), base+arch.Addr(1000+i*8), base+arch.Addr(1004+i*8))
		if err != nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("hardware accepted %d monitors, want 4", n)
	}
}

func TestBreakOnStatic(t *testing.T) {
	src := `
	int tick() { static int n = 0; n = n + 1; return n; }
	int main() { tick(); tick(); return 0; }`
	s, err := LaunchWith(src, TrapPatch, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnData("tick$n"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.Hits()) != 2 {
		t.Errorf("static hits = %d, want 2", len(s.Hits()))
	}
}

func TestMaxHitsBounded(t *testing.T) {
	s := launch(t, CodePatch)
	s.MaxHits = 2
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.Hits()) != 2 {
		t.Errorf("log = %d, want bounded to 2", len(s.Hits()))
	}
}

func TestReportRendering(t *testing.T) {
	s := launch(t, VirtualMemory)
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	for _, want := range []string{"strategy=vm", "counter", "bump", "sneak"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestLaunchErrors(t *testing.T) {
	if _, err := LaunchWith("not a program", CodePatch, LaunchConfig{}); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := LaunchWith(testProg, Strategy("bogus"), LaunchConfig{}); err == nil {
		t.Error("bad strategy should fail")
	}
}

func TestVirtualMemory8K(t *testing.T) {
	s, err := LaunchWith(testProg, VirtualMemory, LaunchConfig{PageSize: arch.PageSize8K})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnData("counter"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.Hits()) != 4 {
		t.Errorf("8K page hits = %d", len(s.Hits()))
	}
}
