package wms

import (
	"math/rand"
	"testing"

	"edb/internal/arch"
)

func indexes() map[string]func() Index {
	return map[string]func() Index{
		"pagebitmap": func() Index { return NewPageBitmap() },
		"interval":   func() Index { return NewIntervalIndex() },
		"naive":      func() Index { return NewNaiveIndex() },
	}
}

func TestInstallLookupRemove(t *testing.T) {
	for name, mk := range indexes() {
		t.Run(name, func(t *testing.T) {
			x := mk()
			base := arch.Addr(0x400000)
			x.Install(base+8, base+16)
			if !x.Lookup(base+8, base+12) {
				t.Error("first word should hit")
			}
			if !x.Lookup(base+12, base+16) {
				t.Error("second word should hit")
			}
			if x.Lookup(base, base+8) {
				t.Error("before monitor should miss")
			}
			if x.Lookup(base+16, base+20) {
				t.Error("after monitor should miss")
			}
			if x.ActiveWords() != 2 {
				t.Errorf("ActiveWords = %d", x.ActiveWords())
			}
			x.Remove(base+8, base+16)
			if x.Lookup(base+8, base+16) {
				t.Error("removed monitor should miss")
			}
			if x.ActiveWords() != 0 {
				t.Errorf("ActiveWords after remove = %d", x.ActiveWords())
			}
		})
	}
}

func TestOverlappingInstallsNest(t *testing.T) {
	for name, mk := range indexes() {
		t.Run(name, func(t *testing.T) {
			x := mk()
			base := arch.Addr(0x400000)
			x.Install(base, base+16)
			x.Install(base+8, base+24) // overlaps [8,16)
			x.Remove(base, base+16)
			// Words 8..24 must still be monitored.
			if !x.Lookup(base+8, base+12) {
				t.Error("word 8 should still be covered by second monitor")
			}
			if !x.Lookup(base+16, base+20) {
				t.Error("word 16 should still be covered")
			}
			if x.Lookup(base, base+8) {
				t.Error("words 0..8 should be free")
			}
			x.Remove(base+8, base+24)
			if x.Lookup(base, base+24) {
				t.Error("everything removed")
			}
		})
	}
}

func TestCrossPageMonitor(t *testing.T) {
	for name, mk := range indexes() {
		t.Run(name, func(t *testing.T) {
			x := mk()
			// Straddle a 4K page boundary.
			ba := arch.Addr(0x400000 + 4096 - 8)
			x.Install(ba, ba+16)
			if !x.Lookup(ba, ba+4) || !x.Lookup(ba+12, ba+16) {
				t.Error("cross-page monitor lookup failed")
			}
			x.Remove(ba, ba+16)
			if x.Lookup(ba, ba+16) {
				t.Error("cross-page remove failed")
			}
		})
	}
}

func TestUnalignedRangesRounded(t *testing.T) {
	// Monitors are word-aligned (Appendix A.5 footnote): unaligned
	// requests round outward.
	x := NewPageBitmap()
	base := arch.Addr(0x400000)
	x.Install(base+5, base+7) // covers word [4,8)
	if !x.Lookup(base+4, base+8) {
		t.Error("unaligned install should cover enclosing word")
	}
	x.Remove(base+5, base+7)
	if x.Lookup(base+4, base+8) {
		t.Error("unaligned remove should clear it")
	}
}

func TestRemoveNeverInstalledIsNoop(t *testing.T) {
	for name, mk := range indexes() {
		t.Run(name, func(t *testing.T) {
			x := mk()
			x.Remove(0x400000, 0x400010) // must not panic
			if x.ActiveWords() != 0 {
				t.Error("phantom words after spurious remove")
			}
		})
	}
}

func TestPagesTracking(t *testing.T) {
	x := NewPageBitmap()
	base := arch.Addr(0x400000)
	x.Install(base, base+4)
	x.Install(base+8192, base+8196)
	if len(x.pages) != 2 {
		t.Errorf("pages = %d, want 2", len(x.pages))
	}
	x.Remove(base, base+4)
	if len(x.pages) != 1 {
		t.Errorf("pages after remove = %d, want 1", len(x.pages))
	}
}

// Property test: PageBitmap and IntervalIndex agree with NaiveIndex on a
// random workload of installs, removes, and lookups.
func TestIndexesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pb := NewPageBitmap()
	iv := NewIntervalIndex()
	nv := NewNaiveIndex()
	var installed []arch.Range
	region := arch.Addr(0x400000)
	randRange := func() arch.Range {
		ba := region + arch.Addr(rng.Intn(4096))*4
		ln := arch.Addr(1+rng.Intn(64)) * 4
		return arch.Range{BA: ba, EA: ba + ln}
	}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			r := randRange()
			pb.Install(r.BA, r.EA)
			iv.Install(r.BA, r.EA)
			nv.Install(r.BA, r.EA)
			installed = append(installed, r)
		case 2:
			if len(installed) > 0 {
				i := rng.Intn(len(installed))
				r := installed[i]
				installed = append(installed[:i], installed[i+1:]...)
				pb.Remove(r.BA, r.EA)
				iv.Remove(r.BA, r.EA)
				nv.Remove(r.BA, r.EA)
			}
		case 3:
			q := randRange()
			want := nv.Lookup(q.BA, q.EA)
			if got := pb.Lookup(q.BA, q.EA); got != want {
				t.Fatalf("step %d: pagebitmap lookup %v = %v, naive = %v", step, q, got, want)
			}
			if got := iv.Lookup(q.BA, q.EA); got != want {
				t.Fatalf("step %d: interval lookup %v = %v, naive = %v", step, q, got, want)
			}
		}
		if step%500 == 0 {
			if pb.ActiveWords() != nv.ActiveWords() {
				t.Fatalf("step %d: active words diverge: pb=%d naive=%d",
					step, pb.ActiveWords(), nv.ActiveWords())
			}
		}
	}
}

func TestServiceCounting(t *testing.T) {
	var notes []Notification
	s := NewService(nil, func(n Notification) { notes = append(notes, n) })
	base := arch.Addr(0x400000)
	if err := s.InstallMonitor(base, base+8); err != nil {
		t.Fatal(err)
	}
	if hit := s.CheckWrite(base, base+4, 0x1000); !hit {
		t.Error("write to monitor should hit")
	}
	if hit := s.CheckWrite(base+100, base+104, 0x1004); hit {
		t.Error("write off monitor should miss")
	}
	if err := s.RemoveMonitor(base, base+8); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Installs != 1 || st.Removes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(notes) != 1 || notes[0].PC != 0x1000 || notes[0].BA != base {
		t.Errorf("notifications = %+v", notes)
	}
}

func TestServiceRejectsEmptyRanges(t *testing.T) {
	s := NewService(nil, nil)
	if err := s.InstallMonitor(8, 8); err == nil {
		t.Error("empty install should error")
	}
	if err := s.RemoveMonitor(8, 4); err == nil {
		t.Error("inverted remove should error")
	}
}

func TestServiceNilNotifier(t *testing.T) {
	s := NewService(NewNaiveIndex(), nil)
	_ = s.InstallMonitor(0x400000, 0x400004)
	// Must not panic with a nil notifier.
	if !s.CheckWrite(0x400000, 0x400004, 0) {
		t.Error("hit not detected")
	}
}

func TestServiceLookupDoesNotCount(t *testing.T) {
	s := NewService(nil, nil)
	_ = s.InstallMonitor(0x400000, 0x400004)
	s.Lookup(0x400000, 0x400004)
	if st := s.Stats(); st.Hits != 0 && st.Misses != 0 {
		t.Error("raw Lookup must not count")
	}
}

func TestLargeMonitorCount(t *testing.T) {
	// The paper's motivating case: "monitoring a large central data
	// structure with thousands of constituent elements" — far beyond any
	// hardware register file.
	x := NewPageBitmap()
	base := arch.Addr(0x1000000)
	const n = 5000
	for i := 0; i < n; i++ {
		ba := base + arch.Addr(i*16)
		x.Install(ba, ba+8)
	}
	if x.ActiveWords() != n*2 {
		t.Fatalf("ActiveWords = %d", x.ActiveWords())
	}
	hits := 0
	for i := 0; i < n; i++ {
		if x.Lookup(base+arch.Addr(i*16), base+arch.Addr(i*16)+4) {
			hits++
		}
		if x.Lookup(base+arch.Addr(i*16)+8, base+arch.Addr(i*16)+12) {
			t.Fatal("gap should miss")
		}
	}
	if hits != n {
		t.Fatalf("hits = %d", hits)
	}
}

func BenchmarkPageBitmapLookupMiss(b *testing.B) {
	x := NewPageBitmap()
	base := arch.Addr(0x1000000)
	for i := 0; i < 100; i++ {
		ba := base + arch.Addr(i*4096)
		x.Install(ba, ba+64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Lookup(base+2048, base+2052)
	}
}

func BenchmarkPageBitmapLookupHit(b *testing.B) {
	x := NewPageBitmap()
	base := arch.Addr(0x1000000)
	x.Install(base, base+64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Lookup(base+32, base+36)
	}
}

func BenchmarkPageBitmapInstallRemove(b *testing.B) {
	x := NewPageBitmap()
	base := arch.Addr(0x1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba := base + arch.Addr(i%1000)*64
		x.Install(ba, ba+32)
		x.Remove(ba, ba+32)
	}
}

func BenchmarkIntervalLookup(b *testing.B) {
	x := NewIntervalIndex()
	base := arch.Addr(0x1000000)
	for i := 0; i < 100; i++ {
		ba := base + arch.Addr(i*4096)
		x.Install(ba, ba+64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Lookup(base+2048, base+2052)
	}
}

func BenchmarkNaiveLookup(b *testing.B) {
	x := NewNaiveIndex()
	base := arch.Addr(0x1000000)
	for i := 0; i < 100; i++ {
		ba := base + arch.Addr(i*4096)
		x.Install(ba, ba+64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Lookup(base+2048, base+2052)
	}
}
