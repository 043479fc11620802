package vmwms

import (
	"testing"

	"edb/internal/arch"
	"edb/internal/core/wms"
	"edb/internal/kernel"
	"edb/internal/mem"
	"edb/internal/minic"
)

const src = `
int watched = 0;
int neighbour = 0;
int faraway[2048];
int main() {
	int i;
	for (i = 0; i < 20; i = i + 1) {
		neighbour = neighbour + 1;   // same page as watched
		faraway[1500] = i;           // different page
		if (i % 4 == 0) { watched = watched + 1; }
	}
	print(watched);
	return 0;
}`

func machine(t *testing.T, pageSize int) *kernel.Machine {
	t.Helper()
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHitsMissesAndPages(t *testing.T) {
	m := machine(t, arch.PageSize4K)
	var notes []wms.Notification
	w := Attach(m, func(n wms.Notification) { notes = append(notes, n) })
	g := m.Image.Data["watched"]
	if err := w.InstallMonitor(g.BA, g.EA); err != nil {
		t.Fatal(err)
	}
	if len(w.pageMonitors) != 1 {
		t.Errorf("monitored pages = %d", len(w.pageMonitors))
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Hits != 5 || len(notes) != 5 {
		t.Errorf("hits = %d / %d notifications, want 5", st.Hits, len(notes))
	}
	// Only same-page writes fault: neighbour (20 writes) and loop locals
	// are on the stack page — locals aren't monitored, so misses come
	// from neighbour (+ any same-page data writes).
	if st.Misses < 20 {
		t.Errorf("active-page misses = %d, want >= 20 from neighbour", st.Misses)
	}
	// faraway writes never reach the WMS at all.
	if w.Faults != st.Hits+st.Misses {
		t.Errorf("faults %d != hits+misses %d", w.Faults, st.Hits+st.Misses)
	}
	if err := w.RemoveMonitor(g.BA, g.EA); err != nil {
		t.Fatal(err)
	}
	if len(w.pageMonitors) != 0 {
		t.Error("page still protected after remove")
	}
	// Page must be writable again.
	if err := m.Mem.WriteWord(g.BA, 1); err != nil {
		t.Errorf("page not unprotected: %v", err)
	}
}

func TestPageProtectionVisible(t *testing.T) {
	m := machine(t, arch.PageSize4K)
	w := Attach(m, nil)
	g := m.Image.Data["watched"]
	_ = w.InstallMonitor(g.BA, g.EA)
	if p := m.Mem.ProtAt(g.BA); p&mem.ProtWrite != 0 {
		t.Error("monitored page still writable")
	}
	if w.ProtectCalls != 1 {
		t.Errorf("ProtectCalls = %d", w.ProtectCalls)
	}
	_ = w.RemoveMonitor(g.BA, g.EA)
	if w.UnprotectCalls != 1 {
		t.Errorf("UnprotectCalls = %d", w.UnprotectCalls)
	}
}

func TestTwoMonitorsOnePage(t *testing.T) {
	m := machine(t, arch.PageSize4K)
	w := Attach(m, nil)
	g := m.Image.Data["watched"]
	n := m.Image.Data["neighbour"]
	_ = w.InstallMonitor(g.BA, g.EA)
	_ = w.InstallMonitor(n.BA, n.EA)
	// One protect for the shared page.
	if w.ProtectCalls != 1 {
		t.Errorf("ProtectCalls = %d, want 1", w.ProtectCalls)
	}
	_ = w.RemoveMonitor(g.BA, g.EA)
	if w.UnprotectCalls != 0 {
		t.Error("page unprotected while a monitor remains")
	}
	_ = w.RemoveMonitor(n.BA, n.EA)
	if w.UnprotectCalls != 1 {
		t.Errorf("UnprotectCalls = %d, want 1", w.UnprotectCalls)
	}
}

func Test8KPages(t *testing.T) {
	m := machine(t, arch.PageSize8K)
	w := Attach(m, nil)
	g := m.Image.Data["watched"]
	_ = w.InstallMonitor(g.BA, g.EA)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Hits != 5 {
		t.Errorf("hits = %d", st.Hits)
	}
	// The 8K page covers more neighbours, so at least as many misses as
	// a 4K run would see.
	m4 := machine(t, arch.PageSize4K)
	w4 := Attach(m4, nil)
	g4 := m4.Image.Data["watched"]
	_ = w4.InstallMonitor(g4.BA, g4.EA)
	if err := m4.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if st.Misses < w4.Stats().Misses {
		t.Errorf("8K misses (%d) < 4K misses (%d)", st.Misses, w4.Stats().Misses)
	}
}

func TestProgramSemanticsPreserved(t *testing.T) {
	mPlain := machine(t, arch.PageSize4K)
	if err := mPlain.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	m := machine(t, arch.PageSize4K)
	w := Attach(m, nil)
	g := m.Image.Data["watched"]
	_ = w.InstallMonitor(g.BA, g.EA)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Out.String() != mPlain.Out.String() {
		t.Errorf("output changed: %q vs %q", m.Out.String(), mPlain.Out.String())
	}
}
