package debug

import (
	"testing"
)

const localProg = `
int helper(int n) {
	int acc = 0;
	int j;
	for (j = 0; j < n; j = j + 1) { acc = acc + j; }
	return acc;
}
int main() {
	int total = 0;
	total = total + helper(3);
	total = total + helper(5);
	print(total);
	return 0;
}
`

func TestBreakOnLocalAllStrategies(t *testing.T) {
	for _, strat := range Strategies {
		strat := strat
		t.Run(string(strat), func(t *testing.T) {
			s, err := LaunchWith(localProg, strat, LaunchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			bp, err := s.BreakOnLocal("helper", "acc")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			// acc is written: init + per-iteration: (1+3) + (1+5) = 10.
			if bp.Hits != 10 {
				t.Errorf("acc hits = %d, want 10", bp.Hits)
			}
			// All hits attributed and carrying values.
			for _, h := range s.Hits() {
				if h.Breakpoint != "helper.acc" {
					t.Errorf("hit attributed to %q", h.Breakpoint)
				}
				if h.Func != "helper" {
					t.Errorf("hit from %q", h.Func)
				}
			}
			// The final write of the second call stores 0+1+2+3+4 = 10.
			hits := s.Hits()
			if got := hits[len(hits)-1].Value; got != 10 {
				t.Errorf("last acc value = %d, want 10", got)
			}
		})
	}
}

func TestBreakOnLocalRecursion(t *testing.T) {
	src := `
	int fact(int n) {
		int r;
		if (n <= 1) { r = 1; } else { r = n * fact(n - 1); }
		return r;
	}
	int main() { print(fact(5)); return 0; }`
	s, err := LaunchWith(src, CodePatch, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := s.BreakOnLocal("fact", "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// Five instantiations, one write each.
	if bp.Hits != 5 {
		t.Errorf("r hits = %d, want 5 (one per recursion level)", bp.Hits)
	}
	// Distinct addresses per level.
	addrs := map[uint32]bool{}
	for _, h := range s.Hits() {
		addrs[uint32(h.BA)] = true
	}
	if len(addrs) != 5 {
		t.Errorf("distinct instantiation addresses = %d, want 5", len(addrs))
	}
}

func TestBreakOnLocalErrors(t *testing.T) {
	s, _ := LaunchWith(localProg, CodePatch, LaunchConfig{})
	if _, err := s.BreakOnLocal("nosuch", "x"); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := s.BreakOnLocal("helper", "nosuch"); err == nil {
		t.Error("unknown local should fail")
	}
	if _, err := s.BreakOnLocal("helper", "acc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnLocal("helper", "acc"); err == nil {
		t.Error("duplicate local watch should fail")
	}
}

func TestClearLocalWatch(t *testing.T) {
	s, _ := LaunchWith(localProg, CodePatch, LaunchConfig{})
	if _, err := s.BreakOnLocal("helper", "acc"); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear("helper.acc"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.Hits()) != 0 {
		t.Errorf("hits after clear = %d", len(s.Hits()))
	}
}

func TestConditionalBreakpoint(t *testing.T) {
	src := `
	int level = 0;
	int main() {
		int i;
		for (i = 0; i < 10; i = i + 1) { level = i * 10; }
		return 0;
	}`
	s, err := LaunchWith(src, CodePatch, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := s.BreakOnData("level")
	if err != nil {
		t.Fatal(err)
	}
	// Only care about writes that push level above 50.
	bp.Condition = func(old, new int32) bool { return new > 50 }
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// level takes 0,10,...,90; values > 50 are 60,70,80,90.
	if bp.Hits != 4 {
		t.Errorf("conditional hits = %d, want 4", bp.Hits)
	}
	for _, h := range s.Hits() {
		if h.Value <= 50 {
			t.Errorf("filtered value %d leaked through", h.Value)
		}
	}
}

func TestConditionSeesOldValue(t *testing.T) {
	src := `
	int v = 0;
	int main() {
		v = 5;
		v = 5;
		v = 7;
		v = 7;
		v = 3;
		return 0;
	}`
	s, _ := LaunchWith(src, TrapPatch, LaunchConfig{})
	bp, _ := s.BreakOnData("v")
	// Trigger only on changes.
	bp.Condition = func(old, new int32) bool { return old != new }
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// Changes: 0->5, 5->7, 7->3 (the repeated stores are filtered).
	if bp.Hits != 3 {
		t.Errorf("change hits = %d, want 3", bp.Hits)
	}
}

func TestLocalWatchOnHardwareExhaustion(t *testing.T) {
	// Deep recursion exceeds four monitor registers; the session keeps
	// running and reports the failures.
	src := `
	int down(int n) {
		int x;
		x = n;
		if (n > 0) { return x + down(n - 1); }
		return x;
	}
	int main() { print(down(10)); return 0; }`
	s, err := LaunchWith(src, NativeHardware, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BreakOnLocal("down", "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if s.LocalInstallFailures == 0 {
		t.Error("expected hardware register exhaustion on deep recursion")
	}
	// The four monitored instantiations still caught their writes.
	if len(s.Hits()) != 4 {
		t.Errorf("hits = %d, want 4 (register budget)", len(s.Hits()))
	}
}
