package debug

import (
	"strings"
	"testing"
)

const replProg = `
int counter = 0;
int table[4] = {9, 8, 7, 6};
int bump(int v) { counter = counter + v; return counter; }
int main() { bump(2); bump(3); print(counter); return 0; }
`

func runREPL(t *testing.T, script string) string {
	t.Helper()
	s, err := LaunchWith(replProg, CodePatch, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	REPL(s, strings.NewReader(script), &out)
	return out.String()
}

func TestREPLWatchContinueInspect(t *testing.T) {
	out := runREPL(t, `
watch counter
c
p counter
c
info
c
q
`)
	for _, want := range []string{
		"watching counter",
		"wrote 2 to",
		"counter = 2",
		"wrote 5 to",
		"breakpoint counter",
		"hits=2",
		"program exited (code 0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLPrintIndexed(t *testing.T) {
	out := runREPL(t, "p table 2\np table\nsyms\nq\n")
	if !strings.Contains(out, "table 2 = 7") {
		t.Errorf("indexed print missing:\n%s", out)
	}
	if !strings.Contains(out, "table = 9") {
		t.Errorf("scalar print of array base missing:\n%s", out)
	}
	if !strings.Contains(out, "counter") || !strings.Contains(out, "table") {
		t.Errorf("syms listing missing:\n%s", out)
	}
}

func TestREPLWatchLocal(t *testing.T) {
	out := runREPL(t, "watchlocal bump v\nc\nq\n")
	if !strings.Contains(out, "watching bump.v") {
		t.Errorf("watchlocal failed:\n%s", out)
	}
	if !strings.Contains(out, "wrote 2 to") {
		t.Errorf("local watch did not break on parameter store:\n%s", out)
	}
}

func TestREPLRun(t *testing.T) {
	out := runREPL(t, "watch counter\nrun\nq\n")
	if !strings.Contains(out, "2 hit(s)") {
		t.Errorf("run summary missing:\n%s", out)
	}
}

func TestREPLErrorsAndHelp(t *testing.T) {
	out := runREPL(t, `
help
watch ghost
watch
watchlocal nope
p ghost
frobnicate
q
`)
	for _, want := range []string{
		"commands:",
		"error:",
		"usage: watch <symbol>",
		"usage: watchlocal <func> <var>",
		`unknown command "frobnicate"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLQuitOnEOF(t *testing.T) {
	// EOF with no quit command must terminate cleanly.
	out := runREPL(t, "info\n")
	if !strings.Contains(out, "pc=") {
		t.Errorf("info output missing:\n%s", out)
	}
}

// TestREPLUnwatchRewrite drives the live-mutation verbs: drop a
// breakpoint at a break, rewrite a store in the live text, and read the
// engine accounting back through info.
func TestREPLUnwatchRewrite(t *testing.T) {
	out := runREPL(t, `
watch counter
c
unwatch counter
rewrite bump 1 4
rewrite bump 99 4
info
run
q
`)
	for _, want := range []string{
		"wrote 2 to",
		"unwatched counter",
		"rewrote bump store #1 by +4 bytes",
		"error:",
		"repatch: installs=1 removes=1 rewrites=1",
		"program exited",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rewrote bump store #99") {
		t.Errorf("bad ordinal was reported as rewritten:\n%s", out)
	}
}

// TestREPLRewriteWithoutEngine: strategies without a re-patching engine
// refuse the verb with a typed error, not a crash.
func TestREPLRewriteWithoutEngine(t *testing.T) {
	s, err := LaunchWith(replProg, VirtualMemory, LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	REPL(s, strings.NewReader("rewrite bump 1 4\nq\n"), &out)
	if !strings.Contains(out.String(), "no re-patching engine") {
		t.Errorf("missing engine error:\n%s", out.String())
	}
}
