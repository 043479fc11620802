package sim

import (
	"testing"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// handTrace builds a trace with precisely known counting variables.
//
// Layout: global g at 0x400000 (1 word), heap object h at 0x1000000
// (4 words). Page 4K #0x400 holds g; a "neighbour" address on g's page
// is 0x400100.
func handTrace() (*trace.Trace, objects.ID, objects.ID) {
	tab := objects.NewTable()
	g := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g", SizeBytes: 4})
	h := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#1", SizeBytes: 16,
		AllocCtx: []string{"main"}})
	tr := &trace.Trace{Program: "hand", Objects: tab, BaseCycles: 40_000_000}
	ev := func(k trace.EventKind, obj objects.ID, ba, ea, pc arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: k, Obj: obj, BA: ba, EA: ea, PC: pc})
	}
	ev(trace.EvInstall, g, 0x400000, 0x400004, 0)
	ev(trace.EvInstall, h, 0x1000000, 0x1000010, 0)
	// 3 writes to g (hits for g's session), 2 writes to g's page but not
	// g (active-page misses for g), 1 write to h, 1 write far away.
	ev(trace.EvWrite, 0, 0x400000, 0x400004, 0x1000)
	ev(trace.EvWrite, 0, 0x400000, 0x400004, 0x1004)
	ev(trace.EvWrite, 0, 0x400000, 0x400004, 0x1008)
	ev(trace.EvWrite, 0, 0x400100, 0x400104, 0x100c)
	ev(trace.EvWrite, 0, 0x400200, 0x400204, 0x1010)
	ev(trace.EvWrite, 0, 0x1000008, 0x100000c, 0x1014)
	ev(trace.EvWrite, 0, 0x2000000, 0x2000004, 0x1018)
	ev(trace.EvRemove, h, 0x1000000, 0x1000010, 0)
	// One more write to h's old page after removal: not an active-page
	// miss for anyone.
	ev(trace.EvWrite, 0, 0x1000008, 0x100000c, 0x101c)
	ev(trace.EvRemove, g, 0x400000, 0x400004, 0)
	return tr, g, h
}

func findSession(set *sessions.Set, ty sessions.Type, name string) int {
	for i := range set.Sessions {
		s := &set.Sessions[i]
		if s.Type == ty && (s.Name == name || s.Func == name) {
			return i
		}
	}
	return -1
}

func TestHandTraceCounting(t *testing.T) {
	tr, _, _ := handTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	set := sessions.Discover(tr)
	out, err := RunWithOptions(tr, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalWrites != 8 {
		t.Fatalf("TotalWrites = %d, want 8", out.TotalWrites)
	}

	gi := findSession(set, sessions.OneGlobalStatic, "g")
	if gi < 0 {
		t.Fatal("session for g missing")
	}
	gc := out.PerSession[gi]
	if gc.Hits != 3 {
		t.Errorf("g hits = %d, want 3", gc.Hits)
	}
	if gc.Misses != 5 {
		t.Errorf("g misses = %d, want 5", gc.Misses)
	}
	if gc.Installs != 1 || gc.Removes != 1 {
		t.Errorf("g installs/removes = %d/%d", gc.Installs, gc.Removes)
	}
	// Two misses wrote to g's 4K page while g was monitored.
	if gc.VM[0].ActivePageMiss != 2 {
		t.Errorf("g 4K ActivePageMiss = %d, want 2", gc.VM[0].ActivePageMiss)
	}
	// Same for 8K (all on the same 8K page).
	if gc.VM[1].ActivePageMiss != 2 {
		t.Errorf("g 8K ActivePageMiss = %d, want 2", gc.VM[1].ActivePageMiss)
	}
	if gc.VM[0].Protects != 1 || gc.VM[0].Unprotects != 1 {
		t.Errorf("g protect/unprotect = %d/%d", gc.VM[0].Protects, gc.VM[0].Unprotects)
	}

	hi := findSession(set, sessions.OneHeap, "heap#1")
	hc := out.PerSession[hi]
	if hc.Hits != 1 {
		t.Errorf("h hits = %d, want 1", hc.Hits)
	}
	if hc.Misses != 7 {
		t.Errorf("h misses = %d, want 7", hc.Misses)
	}
	// The write to h's page after removal must not count.
	if hc.VM[0].ActivePageMiss != 0 {
		t.Errorf("h ActivePageMiss = %d, want 0", hc.VM[0].ActivePageMiss)
	}

	// AllHeapInFunc(main) mirrors OneHeap(h) here.
	mi := findSession(set, sessions.AllHeapInFunc, "main")
	mc := out.PerSession[mi]
	if mc.Hits != hc.Hits || mc.Installs != hc.Installs {
		t.Errorf("AllHeapInFunc(main) = %+v, OneHeap = %+v", mc, hc)
	}
}

func TestPageTransitionsMultiObject(t *testing.T) {
	// Two objects of the same session on one page: protect on first
	// install, unprotect only after the second remove.
	tab := objects.NewTable()
	h1 := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#1", AllocCtx: []string{"main"}})
	h2 := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#2", AllocCtx: []string{"main"}})
	tr := &trace.Trace{Program: "t", Objects: tab}
	ev := func(k trace.EventKind, obj objects.ID, ba, ea arch.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: k, Obj: obj, BA: ba, EA: ea})
	}
	ev(trace.EvInstall, h1, 0x1000000, 0x1000008)
	ev(trace.EvInstall, h2, 0x1000010, 0x1000018)
	ev(trace.EvWrite, 0, 0x1000000, 0x1000004)
	ev(trace.EvRemove, h1, 0x1000000, 0x1000008)
	ev(trace.EvWrite, 0, 0x1000010, 0x1000014)
	ev(trace.EvRemove, h2, 0x1000010, 0x1000018)

	set := sessions.Discover(tr)
	out, err := RunWithOptions(tr, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi := findSession(set, sessions.AllHeapInFunc, "main")
	mc := out.PerSession[mi]
	if mc.VM[0].Protects != 1 {
		t.Errorf("protects = %d, want 1 (page already protected for second install)", mc.VM[0].Protects)
	}
	if mc.VM[0].Unprotects != 1 {
		t.Errorf("unprotects = %d, want 1 (only after last remove)", mc.VM[0].Unprotects)
	}
	if mc.Hits != 2 || mc.Installs != 2 || mc.Removes != 2 {
		t.Errorf("counting = %+v", mc)
	}
	// Per-object sessions see the other object's hit as an active-page miss.
	h1i := findSession(set, sessions.OneHeap, "heap#1")
	c1 := out.PerSession[h1i]
	if c1.Hits != 1 || c1.VM[0].ActivePageMiss != 0 {
		// After h1's removal, the write to h2 lands on a page with no
		// h1-monitors, so no active-page miss for h1's session.
		t.Errorf("h1 counting = %+v", c1)
	}
	h2i := findSession(set, sessions.OneHeap, "heap#2")
	c2 := out.PerSession[h2i]
	if c2.VM[0].ActivePageMiss != 1 {
		t.Errorf("h2 ActivePageMiss = %d, want 1 (h1's hit on shared page)", c2.VM[0].ActivePageMiss)
	}
}

func TestMonitorSpanningPages(t *testing.T) {
	// A monitor spanning a 4K boundary protects two 4K pages but only
	// one 8K page.
	tab := objects.NewTable()
	g := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "big"})
	tr := &trace.Trace{Program: "t", Objects: tab}
	ba := arch.Addr(0x400000 + 4096 - 8)
	tr.Events = []trace.Event{
		{Kind: trace.EvInstall, Obj: g, BA: ba, EA: ba + 16},
		{Kind: trace.EvRemove, Obj: g, BA: ba, EA: ba + 16},
	}
	set := sessions.Discover(tr)
	out, err := RunWithOptions(tr, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gi := findSession(set, sessions.OneGlobalStatic, "big")
	c := out.PerSession[gi]
	if c.VM[0].Protects != 2 || c.VM[0].Unprotects != 2 {
		t.Errorf("4K protect/unprotect = %d/%d, want 2/2", c.VM[0].Protects, c.VM[0].Unprotects)
	}
	if c.VM[1].Protects != 1 || c.VM[1].Unprotects != 1 {
		t.Errorf("8K protect/unprotect = %d/%d, want 1/1", c.VM[1].Protects, c.VM[1].Unprotects)
	}
}

func TestFilterZeroHit(t *testing.T) {
	tr, _, _ := handTrace()
	set := sessions.Discover(tr)
	out, _ := RunWithOptions(tr, set, Options{})
	keep := out.FilterZeroHit()
	for _, i := range keep {
		if out.PerSession[i].Hits == 0 {
			t.Error("zero-hit session kept")
		}
	}
	// All three sessions here have hits (g, heap#1, AllHeapInFunc(main)).
	if len(keep) != 3 {
		t.Errorf("kept %d sessions, want 3", len(keep))
	}
}

func TestEndToEndFromMiniC(t *testing.T) {
	src := `
	int g = 0;
	int bump(int k) {
		int i;
		for (i = 0; i < k; i = i + 1) { g = g + i; }
		return g;
	}
	int main() {
		int p = alloc(32);
		int j;
		for (j = 0; j < 8; j = j + 1) { p[j] = bump(j); }
		free(p);
		return 0;
	}`
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracer.New(m, "e2e").Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	set := sessions.Discover(tr)
	out, err := RunWithOptions(tr, set, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// g is written 0+1+...+7 = 28 times.
	gi := findSession(set, sessions.OneGlobalStatic, "g")
	if got := out.PerSession[gi].Hits; got != 28 {
		t.Errorf("g hits = %d, want 28", got)
	}
	// The heap object receives 8 stores.
	hi := findSession(set, sessions.OneHeap, "heap#1")
	if got := out.PerSession[hi].Hits; got != 8 {
		t.Errorf("heap hits = %d, want 8", got)
	}
	// The induction variable bump.i is hit on every iteration:
	// installs = 8 calls; hits = sum over calls of k (init + increments).
	ii := -1
	for i := range set.Sessions {
		s := &set.Sessions[i]
		if s.Type == sessions.OneLocalAuto && s.Func == "bump" && s.Name == "i" {
			ii = i
		}
	}
	ic := out.PerSession[ii]
	if ic.Installs != 8 {
		t.Errorf("bump.i installs = %d, want 8", ic.Installs)
	}
	// i is stored once at init and once per iteration: sum(1+k) for k=0..7 = 8 + 28.
	if ic.Hits != 36 {
		t.Errorf("bump.i hits = %d, want 36", ic.Hits)
	}
	// Hits+Misses must equal total writes for every session.
	for i := range out.PerSession {
		c := out.PerSession[i]
		if c.Hits+c.Misses != out.TotalWrites {
			t.Fatalf("session %d: hits+misses != total", i)
		}
	}
}
