// Package hw simulates processor monitor-register hardware in the style
// of the Intel i386 debug registers and the MIPS R4000 watch registers
// the paper cites (§3.1): a small, fixed set of registers, each
// describing one contiguous region of memory, raising a trap when a
// write touches a monitored region.
//
// The paper notes that "no widely-used chip today supports more than
// four concurrent write monitors"; NumShippingRegisters captures that,
// while the paper's hypothetical SPARCstation extension (§7, "enough
// monitor registers for the monitor sessions that we are interested
// in") corresponds to Unlimited.
package hw

import (
	"errors"

	"edb/internal/arch"
)

// NumShippingRegisters is the register budget of real 1992-era hardware.
const NumShippingRegisters = 4

// Unlimited selects the paper's hypothetical unbounded register file.
const Unlimited = -1

// ErrNoFreeRegister is returned by Install when every monitor register
// is in use — the fundamental limitation of the hardware approach.
var ErrNoFreeRegister = errors.New("hw: no free monitor register")

// ErrNotInstalled is returned by Remove for an unknown range.
var ErrNotInstalled = errors.New("hw: range not installed in any monitor register")

// MonitorRegisters is the register file. Registers are disabled while
// executing in the kernel (our kernel services bypass the device by
// construction, matching the paper's security note).
type MonitorRegisters struct {
	capacity int
	regs     []arch.Range
	peak     int
}

// New returns a register file with the given capacity (Unlimited for
// the hypothetical extension).
func New(capacity int) *MonitorRegisters {
	return &MonitorRegisters{capacity: capacity}
}

// InUse returns the number of occupied registers.
func (m *MonitorRegisters) InUse() int { return len(m.regs) }

// Peak returns the maximum simultaneous occupancy seen — the number of
// hardware registers the workload would have required.
func (m *MonitorRegisters) Peak() int { return m.peak }

// Install programs a free register with [ba, ea).
func (m *MonitorRegisters) Install(ba, ea arch.Addr) error {
	if ea <= ba {
		return errors.New("hw: empty range")
	}
	if m.capacity != Unlimited && len(m.regs) >= m.capacity {
		return ErrNoFreeRegister
	}
	m.regs = append(m.regs, arch.Range{BA: ba, EA: ea})
	if len(m.regs) > m.peak {
		m.peak = len(m.regs)
	}
	return nil
}

// Remove clears the register programmed with exactly [ba, ea).
func (m *MonitorRegisters) Remove(ba, ea arch.Addr) error {
	want := arch.Range{BA: ba, EA: ea}
	for i, r := range m.regs {
		if r == want {
			m.regs = append(m.regs[:i], m.regs[i+1:]...)
			return nil
		}
	}
	return ErrNotInstalled
}

// Match reports whether a write to [ba, ea) hits any programmed
// register. This is the hardware comparator: in silicon it is free; the
// simulator charges nothing for it.
func (m *MonitorRegisters) Match(ba, ea arch.Addr) bool {
	q := arch.Range{BA: ba, EA: ea}
	for _, r := range m.regs {
		if r.Overlaps(q) {
			return true
		}
	}
	return false
}
