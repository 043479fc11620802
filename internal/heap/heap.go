// Package heap implements the simulated C library allocator: a
// first-fit, coalescing free-list allocator over the heap segment.
//
// Bookkeeping lives on the host side, mirroring the paper's convention
// that standard-library writes do not appear in the event trace; only
// the debuggee's own stores to allocated objects are traced. The
// allocator reports every allocation event through callbacks so the
// tracer can maintain heap-object identity — including across realloc,
// which the paper treats as preserving object identity (§5, footnote 4).
package heap

import (
	"fmt"
	"sort"

	"edb/internal/arch"
)

// Align is the allocation alignment in bytes.
const Align = 8

// span is a free region [ba, ea).
type span struct {
	ba, ea arch.Addr
}

// Allocator manages the heap segment.
type Allocator struct {
	free  []span // sorted by ba, non-adjacent, non-overlapping
	sizes map[arch.Addr]arch.Addr

	// OnAlloc is called after a successful Alloc with the new block.
	OnAlloc func(r arch.Range)
	// OnFree is called before a block is released.
	OnFree func(r arch.Range)
	// OnRealloc is called after a successful Realloc with the old and
	// new extents; the object identity is preserved.
	OnRealloc func(old, new arch.Range)

	allocs, frees, reallocs uint64
}

// New returns an allocator owning the whole heap segment.
func New() *Allocator {
	return &Allocator{
		free:  []span{{arch.HeapBase, arch.HeapLimit}},
		sizes: make(map[arch.Addr]arch.Addr),
	}
}

// Stats reports the operation counts so far.
func (a *Allocator) Stats() (allocs, frees, reallocs uint64) {
	return a.allocs, a.frees, a.reallocs
}

// InUse returns the number of live blocks.
func (a *Allocator) InUse() int { return len(a.sizes) }

// Alloc reserves size bytes (rounded up to Align) and returns the block
// address. It fails only when the heap segment is exhausted.
func (a *Allocator) Alloc(size int) (arch.Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("heap: invalid allocation size %d", size)
	}
	n := arch.Addr(alignUp(size))
	for i := range a.free {
		s := a.free[i]
		if s.ea-s.ba >= n {
			addr := s.ba
			if s.ea-s.ba == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].ba += n
			}
			a.sizes[addr] = n
			a.allocs++
			if a.OnAlloc != nil {
				a.OnAlloc(arch.Range{BA: addr, EA: addr + n})
			}
			return addr, nil
		}
	}
	return 0, fmt.Errorf("heap: out of memory allocating %d bytes", size)
}

// Free releases the block at addr.
func (a *Allocator) Free(addr arch.Addr) error {
	n, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("heap: free of unallocated address %#x", uint32(addr))
	}
	if a.OnFree != nil {
		a.OnFree(arch.Range{BA: addr, EA: addr + n})
	}
	delete(a.sizes, addr)
	a.release(addr, addr+n)
	a.frees++
	return nil
}

// Realloc resizes the block at addr to size bytes, possibly moving it.
// The returned address is the (possibly new) block start.
func (a *Allocator) Realloc(addr arch.Addr, size int) (arch.Addr, error) {
	oldN, ok := a.sizes[addr]
	if !ok {
		return 0, fmt.Errorf("heap: realloc of unallocated address %#x", uint32(addr))
	}
	if size <= 0 {
		return 0, fmt.Errorf("heap: invalid realloc size %d", size)
	}
	newN := arch.Addr(alignUp(size))
	old := arch.Range{BA: addr, EA: addr + oldN}
	if newN == oldN {
		if a.OnRealloc != nil {
			a.OnRealloc(old, old)
		}
		a.reallocs++
		return addr, nil
	}
	if newN < oldN {
		// Shrink in place; release the tail.
		a.sizes[addr] = newN
		a.release(addr+newN, addr+oldN)
		a.reallocs++
		if a.OnRealloc != nil {
			a.OnRealloc(old, arch.Range{BA: addr, EA: addr + newN})
		}
		return addr, nil
	}
	// Try to grow in place: is there a free span adjacent to our end?
	for i := range a.free {
		s := a.free[i]
		if s.ba == addr+oldN && s.ea-s.ba >= newN-oldN {
			grow := newN - oldN
			if s.ea-s.ba == grow {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].ba += grow
			}
			a.sizes[addr] = newN
			a.reallocs++
			if a.OnRealloc != nil {
				a.OnRealloc(old, arch.Range{BA: addr, EA: addr + newN})
			}
			return addr, nil
		}
	}
	// Move: allocate fresh (without firing OnAlloc — identity persists),
	// release the old block (without firing OnFree).
	saveAlloc, saveFree := a.OnAlloc, a.OnFree
	a.OnAlloc, a.OnFree = nil, nil
	newAddr, err := a.Alloc(int(newN))
	if err != nil {
		a.OnAlloc, a.OnFree = saveAlloc, saveFree
		return 0, err
	}
	delete(a.sizes, addr)
	a.release(addr, addr+oldN)
	a.OnAlloc, a.OnFree = saveAlloc, saveFree
	a.allocs-- // the internal Alloc above is part of realloc, not a user alloc
	a.reallocs++
	if a.OnRealloc != nil {
		a.OnRealloc(old, arch.Range{BA: newAddr, EA: newAddr + newN})
	}
	return newAddr, nil
}

// release returns [ba, ea) to the free list, coalescing neighbours.
func (a *Allocator) release(ba, ea arch.Addr) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].ba >= ba })
	// Coalesce with predecessor?
	if i > 0 && a.free[i-1].ea == ba {
		a.free[i-1].ea = ea
		// And with successor?
		if i < len(a.free) && a.free[i].ba == ea {
			a.free[i-1].ea = a.free[i].ea
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
		return
	}
	// Coalesce with successor?
	if i < len(a.free) && a.free[i].ba == ea {
		a.free[i].ba = ba
		return
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{ba, ea}
}

// CheckInvariants validates the free list and allocation map; used by
// tests and property checks.
//
//edbvet:allow unused -- the allocator's consistency checker, which the heap tests run after each operation
func (a *Allocator) CheckInvariants() error {
	for i := 0; i < len(a.free); i++ {
		s := a.free[i]
		if s.ea <= s.ba {
			return fmt.Errorf("empty/inverted free span %#x..%#x", s.ba, s.ea)
		}
		if i > 0 && a.free[i-1].ea >= s.ba {
			return fmt.Errorf("free spans overlap or touch: %#x and %#x", a.free[i-1].ea, s.ba)
		}
		if s.ba < arch.HeapBase || s.ea > arch.HeapLimit {
			return fmt.Errorf("free span outside heap: %#x..%#x", s.ba, s.ea)
		}
	}
	for addr, n := range a.sizes {
		if addr%Align != 0 {
			return fmt.Errorf("misaligned block %#x", addr)
		}
		r := arch.Range{BA: addr, EA: addr + n}
		for _, s := range a.free {
			if r.Overlaps(arch.Range{BA: s.ba, EA: s.ea}) {
				return fmt.Errorf("allocated block %v overlaps free span", r)
			}
		}
	}
	return nil
}

func alignUp(n int) int { return (n + Align - 1) &^ (Align - 1) }
