package arch

import (
	"testing"
	"testing/quick"
)

func TestAligned(t *testing.T) {
	cases := []struct {
		a    Addr
		want bool
	}{
		{0, true}, {1, false}, {2, false}, {3, false}, {4, true},
		{0xfffffffc, true}, {0xffffffff, false},
	}
	for _, c := range cases {
		if got := Aligned(c.a); got != c.want {
			t.Errorf("Aligned(%#x) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestAlignUpDown(t *testing.T) {
	if got := AlignUp(5, 4); got != 8 {
		t.Errorf("AlignUp(5,4) = %d, want 8", got)
	}
	if got := AlignUp(8, 4); got != 8 {
		t.Errorf("AlignUp(8,4) = %d, want 8", got)
	}
	if got := AlignDown(5, 4); got != 4 {
		t.Errorf("AlignDown(5,4) = %d, want 4", got)
	}
	if got := AlignDown(8192, 4096); got != 8192 {
		t.Errorf("AlignDown(8192,4096) = %d, want 8192", got)
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(a uint32) bool {
		ad := Addr(a)
		up := AlignUp(ad, WordBytes)
		down := AlignDown(ad, WordBytes)
		return Aligned(up) && Aligned(down) && down <= ad && (up >= ad || up < down /*overflow*/)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageNum(t *testing.T) {
	if got := PageNum(0, PageSize4K); got != 0 {
		t.Errorf("PageNum(0) = %d", got)
	}
	if got := PageNum(4095, PageSize4K); got != 0 {
		t.Errorf("PageNum(4095) = %d", got)
	}
	if got := PageNum(4096, PageSize4K); got != 1 {
		t.Errorf("PageNum(4096) = %d", got)
	}
	if got := PageNum(8191, PageSize8K); got != 0 {
		t.Errorf("PageNum 8K (8191) = %d", got)
	}
	if got := PageNum(8192, PageSize8K); got != 1 {
		t.Errorf("PageNum 8K (8192) = %d", got)
	}
}

func TestPageBase(t *testing.T) {
	if got := PageBase(4097, PageSize4K); got != 4096 {
		t.Errorf("PageBase(4097) = %d", got)
	}
}

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		ba, ea      Addr
		ps          int
		first, last uint32
	}{
		{0, 4, PageSize4K, 0, 0},
		{4092, 4100, PageSize4K, 0, 1},
		{4096, 8192, PageSize4K, 1, 1},
		{0, 8193, PageSize8K, 0, 1},
	}
	for _, c := range cases {
		f, l := PagesSpanned(c.ba, c.ea, c.ps)
		if f != c.first || l != c.last {
			t.Errorf("PagesSpanned(%d,%d,%d) = %d,%d want %d,%d", c.ba, c.ea, c.ps, f, l, c.first, c.last)
		}
	}
	// Empty range spans no pages.
	f, l := PagesSpanned(100, 100, PageSize4K)
	if f <= l {
		t.Errorf("empty range spans pages: %d..%d", f, l)
	}
}

func TestSegmentOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Segment
	}{
		{TextBase, SegText},
		{TextLimit - 1, SegText},
		{GlobalBase, SegGlobal},
		{HeapBase, SegHeap},
		{HeapLimit - 1, SegHeap},
		{StackBase - 4, SegStack},
		{StackLimit, SegStack},
		{0, SegNone},
		{0xffff_0000, SegNone},
	}
	for _, c := range cases {
		if got := SegmentOf(c.a); got != c.want {
			t.Errorf("SegmentOf(%#x) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestSegmentString(t *testing.T) {
	names := map[Segment]string{
		SegText: "text", SegGlobal: "global", SegHeap: "heap",
		SegStack: "stack", SegNone: "none",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{BA: 100, EA: 108}
	if r.Len() != 8 || r.Words() != 2 || r.Empty() {
		t.Errorf("range basics wrong: %+v len=%d words=%d", r, r.Len(), r.Words())
	}
	if !r.Contains(100) || !r.Contains(107) || r.Contains(108) || r.Contains(99) {
		t.Error("Contains boundaries wrong")
	}
	empty := Range{BA: 5, EA: 5}
	if !empty.Empty() || empty.Len() != 0 {
		t.Error("empty range misreported")
	}
	inverted := Range{BA: 10, EA: 5}
	if !inverted.Empty() || inverted.Len() != 0 {
		t.Error("inverted range should be empty with zero length")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{BA: 0, EA: 10}
	cases := []struct {
		b    Range
		want bool
	}{
		{Range{10, 20}, false},
		{Range{9, 20}, true},
		{Range{0, 1}, true},
		{Range{5, 5}, false}, // empty never overlaps
		{Range{3, 7}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v", c.b)
		}
	}
}

func TestOverlapProperty(t *testing.T) {
	f := func(ba1, len1, ba2, len2 uint16) bool {
		a := Range{Addr(ba1), Addr(ba1) + Addr(len1)}
		b := Range{Addr(ba2), Addr(ba2) + Addr(len2)}
		got := a.Overlaps(b)
		// brute force
		want := false
		for x := a.BA; x < a.EA; x++ {
			if b.Contains(x) {
				want = true
				break
			}
		}
		return got == want
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCycleConversions(t *testing.T) {
	if got := CyclesToSeconds(ClockHz); got != 1.0 {
		t.Errorf("CyclesToSeconds(ClockHz) = %v, want 1", got)
	}
	// 1µs at 40MHz = 40 cycles.
	if got := MicrosToCycles(1); got != 40 {
		t.Errorf("MicrosToCycles(1) = %d, want 40", got)
	}
	// Paper's VMFaultHandler = 561µs = 22440 cycles.
	if got := MicrosToCycles(561); got != 22440 {
		t.Errorf("MicrosToCycles(561) = %d, want 22440", got)
	}
}

func TestRangeString(t *testing.T) {
	r := Range{BA: 0x10, EA: 0x20}
	if got := r.String(); got != "[0x10,0x20)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTextWord(t *testing.T) {
	cases := []struct {
		a    Addr
		i    int
		text bool
	}{
		{TextBase, 0, true},
		{TextBase + 8, 2, true},
		{TextLimit - WordBytes, int(TextLimit-TextBase)/WordBytes - 1, true},
		{TextBase + 2, 0, false},
		{TextBase - WordBytes, 0, false},
		{TextLimit, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		i, ok := TextWord(c.a)
		if ok != c.text || ok && i != c.i {
			t.Errorf("TextWord(%#x) = %d, %v; want %d, %v", uint32(c.a), i, ok, c.i, c.text)
		}
	}
}
