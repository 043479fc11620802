package heap

import (
	"math/rand"
	"testing"

	"edb/internal/arch"
)

func TestAllocBasic(t *testing.T) {
	a := New()
	p1, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != arch.HeapBase {
		t.Errorf("first alloc at %#x", p1)
	}
	p2, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1+16 {
		t.Errorf("second alloc at %#x", p2)
	}
	if a.sizes[p1] != 16 || a.sizes[p2] != 16 {
		t.Error("SizeOf wrong")
	}
	if a.InUse() != 2 {
		t.Errorf("InUse = %d", a.InUse())
	}
}

func TestAllocAlignment(t *testing.T) {
	a := New()
	p1, _ := a.Alloc(5) // rounds to 8
	p2, _ := a.Alloc(1)
	if p2 != p1+8 {
		t.Errorf("alignment: p2 = %#x, want %#x", p2, p1+8)
	}
	if p1%Align != 0 || p2%Align != 0 {
		t.Error("blocks misaligned")
	}
}

func TestAllocInvalid(t *testing.T) {
	a := New()
	if _, err := a.Alloc(0); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := a.Alloc(-4); err == nil {
		t.Error("Alloc(-4) should fail")
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := New()
	p1, _ := a.Alloc(32)
	_, _ = a.Alloc(32)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p3, _ := a.Alloc(32)
	if p3 != p1 {
		t.Errorf("first-fit should reuse freed block: got %#x want %#x", p3, p1)
	}
}

func TestFreeErrors(t *testing.T) {
	a := New()
	if err := a.Free(arch.HeapBase); err == nil {
		t.Error("free of never-allocated should fail")
	}
	p, _ := a.Alloc(8)
	_ = a.Free(p)
	if err := a.Free(p); err == nil {
		t.Error("double free should fail")
	}
}

func TestCoalescing(t *testing.T) {
	a := New()
	p1, _ := a.Alloc(16)
	p2, _ := a.Alloc(16)
	p3, _ := a.Alloc(16)
	_, _ = a.Alloc(16) // guard
	_ = a.Free(p1)
	_ = a.Free(p3)
	_ = a.Free(p2) // middle free should merge all three
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A 48-byte alloc should fit exactly where p1..p3 were.
	p, err := a.Alloc(48)
	if err != nil || p != p1 {
		t.Errorf("coalesced alloc at %#x (err %v), want %#x", p, err, p1)
	}
}

func TestReallocGrowInPlace(t *testing.T) {
	a := New()
	p, _ := a.Alloc(16)
	np, err := a.Realloc(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if np != p {
		t.Errorf("grow into free tail should stay in place: %#x -> %#x", p, np)
	}
	if a.sizes[p] != 64 {
		t.Errorf("size after realloc = %d", a.sizes[p])
	}
}

func TestReallocMove(t *testing.T) {
	a := New()
	p1, _ := a.Alloc(16)
	_, _ = a.Alloc(16) // block the tail
	np, err := a.Realloc(p1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if np == p1 {
		t.Error("blocked grow must move")
	}
	if a.sizes[np] != 64 || a.sizes[p1] != 0 {
		t.Error("sizes after move wrong")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReallocShrink(t *testing.T) {
	a := New()
	p, _ := a.Alloc(64)
	np, err := a.Realloc(p, 16)
	if err != nil || np != p {
		t.Fatalf("shrink moved or failed: %#x, %v", np, err)
	}
	if a.sizes[p] != 16 {
		t.Errorf("size = %d", a.sizes[p])
	}
	// The tail must be reusable.
	q, _ := a.Alloc(48)
	if q != p+16 {
		t.Errorf("tail not released: q = %#x", q)
	}
}

func TestReallocSameSize(t *testing.T) {
	a := New()
	p, _ := a.Alloc(16)
	var called bool
	a.OnRealloc = func(old, new arch.Range) { called = old == new }
	np, err := a.Realloc(p, 16)
	if err != nil || np != p || !called {
		t.Error("same-size realloc should be identity")
	}
}

func TestReallocErrors(t *testing.T) {
	a := New()
	if _, err := a.Realloc(arch.HeapBase, 8); err == nil {
		t.Error("realloc of unallocated should fail")
	}
	p, _ := a.Alloc(8)
	if _, err := a.Realloc(p, 0); err == nil {
		t.Error("realloc to 0 should fail")
	}
}

func TestCallbacks(t *testing.T) {
	a := New()
	var allocs, frees, reallocs int
	a.OnAlloc = func(r arch.Range) { allocs++ }
	a.OnFree = func(r arch.Range) { frees++ }
	a.OnRealloc = func(old, new arch.Range) { reallocs++ }
	p, _ := a.Alloc(16)
	_, _ = a.Alloc(16)
	p2, _ := a.Realloc(p, 128) // move: must NOT fire alloc/free
	_ = a.Free(p2)
	if allocs != 2 || frees != 1 || reallocs != 1 {
		t.Errorf("callbacks = %d/%d/%d, want 2/1/1", allocs, frees, reallocs)
	}
	ga, gf, gr := a.Stats()
	if ga != 2 || gf != 1 || gr != 1 {
		t.Errorf("Stats = %d/%d/%d", ga, gf, gr)
	}
}

// Property: a random workload never violates allocator invariants, and
// live blocks never overlap.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := New()
	live := make(map[arch.Addr]int)
	for i := 0; i < 5000; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) == 0:
			size := 1 + rng.Intn(512)
			p, err := a.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			live[p] = size
		case rng.Intn(2) == 0:
			for p := range live {
				if err := a.Free(p); err != nil {
					t.Fatal(err)
				}
				delete(live, p)
				break
			}
		default:
			for p := range live {
				size := 1 + rng.Intn(512)
				np, err := a.Realloc(p, size)
				if err != nil {
					t.Fatal(err)
				}
				delete(live, p)
				live[np] = size
				break
			}
		}
		if i%500 == 0 {
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			checkNoOverlap(t, live)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func checkNoOverlap(t *testing.T, live map[arch.Addr]int) {
	t.Helper()
	type blk struct {
		ba, ea arch.Addr
	}
	var blocks []blk
	for p, n := range live {
		blocks = append(blocks, blk{p, p + arch.Addr((n+Align-1)&^(Align-1))})
	}
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			if a.ba < b.ea && b.ba < a.ea {
				t.Fatalf("blocks overlap: %+v %+v", a, b)
			}
		}
	}
}

func TestExhaustion(t *testing.T) {
	a := New()
	// The heap is 48 MiB; a 64 MiB request must fail.
	if _, err := a.Alloc(64 << 20); err == nil {
		t.Error("oversized alloc should fail")
	}
	// And the failure must leave the allocator usable.
	if _, err := a.Alloc(16); err != nil {
		t.Errorf("alloc after failure: %v", err)
	}
}
