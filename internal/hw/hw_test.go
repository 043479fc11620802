package hw

import (
	"testing"

	"edb/internal/arch"
)

func TestInstallRemoveMatch(t *testing.T) {
	m := New(NumShippingRegisters)
	if err := m.Install(100, 108); err != nil {
		t.Fatal(err)
	}
	if !m.Match(100, 104) || !m.Match(104, 108) {
		t.Error("match inside monitor failed")
	}
	if m.Match(96, 100) || m.Match(108, 112) {
		t.Error("match outside monitor")
	}
	if err := m.Remove(100, 108); err != nil {
		t.Fatal(err)
	}
	if m.Match(100, 104) {
		t.Error("removed register still matches")
	}
}

func TestCapacityLimit(t *testing.T) {
	m := New(4)
	for i := 0; i < 4; i++ {
		if err := m.Install(arch.Addr(i*16), arch.Addr(i*16+8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Install(1000, 1008); err != ErrNoFreeRegister {
		t.Errorf("5th install: %v", err)
	}
	if m.InUse() != 4 || m.Peak() != 4 || m.capacity != 4 {
		t.Errorf("occupancy: %d/%d/%d", m.InUse(), m.Peak(), m.capacity)
	}
	// Removing frees a register.
	if err := m.Remove(0, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(1000, 1008); err != nil {
		t.Errorf("install after remove: %v", err)
	}
}

func TestUnlimited(t *testing.T) {
	m := New(Unlimited)
	for i := 0; i < 500; i++ {
		if err := m.Install(arch.Addr(i*16), arch.Addr(i*16+8)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Peak() != 500 {
		t.Errorf("peak = %d", m.Peak())
	}
}

func TestErrors(t *testing.T) {
	m := New(2)
	if err := m.Install(8, 8); err == nil {
		t.Error("empty range should fail")
	}
	if err := m.Remove(0, 8); err != ErrNotInstalled {
		t.Errorf("remove of unknown range: %v", err)
	}
}

func TestOverlapMatching(t *testing.T) {
	m := New(Unlimited)
	_ = m.Install(100, 120)
	// A write spanning into the monitor matches.
	if !m.Match(96, 104) {
		t.Error("partial-overlap write should match")
	}
	// Multiple registers: any match wins.
	_ = m.Install(200, 208)
	if !m.Match(204, 208) {
		t.Error("second register should match")
	}
}
