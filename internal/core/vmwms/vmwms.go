// Package vmwms implements the paper's VirtualMemory WMS strategy
// (§3.2, §7.1.2, Figure 4): pages holding active write monitors are
// write-protected; a store to such a page faults into a user-level
// handler that looks the address up in the software mapping, delivers a
// notification on hits, emulates the faulting store, and continues —
// keeping the page protected for subsequent writes.
//
// Cost accounting on the simulated machine reproduces the paper's
// composite timings: the kernel charges signal delivery, the handler's
// mprotect pair charges VMUnprotect+VMProtect, and emulation charges the
// decode-and-continue cost; together they equal VMFaultHandler_τ
// (561 µs). Each install/remove charges SoftwareUpdate plus the
// unprotect/reprotect of the WMS metadata page (the paper's models keep
// the address→monitor mapping in the debuggee's address space and
// re-protect it around every update).
package vmwms

import (
	"fmt"

	"edb/internal/arch"
	"edb/internal/core/wms"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/mem"
)

// WMS is a VirtualMemory write monitor service attached to one machine.
type WMS struct {
	m       *kernel.Machine
	svc     *wms.Service
	notify  wms.Notifier
	updCost uint64

	// pageMonitors counts active monitors per MMU page, driving
	// protect/unprotect transitions.
	pageMonitors map[uint32]int

	// ProtectCalls / UnprotectCalls count mprotect transitions for
	// validation against VMProtect_σ / VMUnprotect_σ.
	ProtectCalls, UnprotectCalls uint64
	// Faults counts delivered write faults (hits + active-page misses).
	Faults uint64
}

// Attach wires a VirtualMemory WMS to the machine, claiming the
// machine's fault handler.
func Attach(m *kernel.Machine, notify wms.Notifier) *WMS {
	w := &WMS{
		m:            m,
		notify:       notify,
		pageMonitors: make(map[uint32]int),
		updCost:      arch.MicrosToCycles(22), // SoftwareUpdate_τ
	}
	w.svc = wms.NewService(nil, nil)
	m.RegisterFaultHandler(w.onFault)
	return w
}

func (w *WMS) pageSize() int { return w.m.Mem.PageSize() }

// InstallMonitor installs a write monitor over [ba, ea), protecting any
// page whose active-monitor count rises from zero.
func (w *WMS) InstallMonitor(ba, ea arch.Addr) error {
	if err := w.svc.InstallMonitor(ba, ea); err != nil {
		return err
	}
	// Updating the (debuggee-resident) mapping: unprotect the metadata
	// page, update, reprotect.
	w.m.CPU.ChargeCycles(w.m.Costs.MprotectOff + w.updCost + w.m.Costs.MprotectOn)
	ps := w.pageSize()
	first, last := arch.PagesSpanned(ba, ea, ps)
	for pn := first; pn <= last; pn++ {
		w.pageMonitors[pn]++
		if w.pageMonitors[pn] == 1 {
			base := arch.Addr(pn) * arch.Addr(ps)
			w.m.Mprotect(base, base+arch.Addr(ps), mem.ProtRead)
			w.ProtectCalls++
		}
	}
	return nil
}

// RemoveMonitor removes a monitor, unprotecting pages whose count drops
// to zero.
func (w *WMS) RemoveMonitor(ba, ea arch.Addr) error {
	if err := w.svc.RemoveMonitor(ba, ea); err != nil {
		return err
	}
	w.m.CPU.ChargeCycles(w.m.Costs.MprotectOff + w.updCost + w.m.Costs.MprotectOn)
	ps := w.pageSize()
	first, last := arch.PagesSpanned(ba, ea, ps)
	for pn := first; pn <= last; pn++ {
		w.pageMonitors[pn]--
		if w.pageMonitors[pn] == 0 {
			delete(w.pageMonitors, pn)
			base := arch.Addr(pn) * arch.Addr(ps)
			w.m.Mprotect(base, base+arch.Addr(ps), mem.ProtRW)
			w.UnprotectCalls++
		}
	}
	return nil
}

// onFault is the user-level write-fault handler. Signal-delivery cost
// has already been charged by the kernel.
func (w *WMS) onFault(m *kernel.Machine, f *mem.Fault, in isa.Inst, pc arch.Addr) error {
	ps := w.pageSize()
	pn := arch.PageNum(f.Addr, ps)
	if w.pageMonitors[pn] == 0 {
		return fmt.Errorf("vmwms: unexpected write fault at %#x (page not monitored)", uint32(f.Addr))
	}
	w.Faults++

	// Software lookup to classify hit vs same-page miss.
	w.m.CPU.ChargeCycles(arch.MicrosToCycles(2.75)) // SoftwareLookup_τ
	hit := w.svc.CheckWrite(f.Addr, f.Addr+arch.WordBytes, pc)

	// Continue execution: unprotect the page, emulate the store,
	// reprotect — the sequence of the paper's Appendix A.2 handler.
	base := arch.PageBase(f.Addr, ps)
	m.Mprotect(base, base+arch.Addr(ps), mem.ProtRW)
	addr, err := m.EmulateStore(in)
	if err != nil {
		return err
	}
	if addr != f.Addr {
		return fmt.Errorf("vmwms: emulated store landed at %#x, fault was %#x", uint32(addr), uint32(f.Addr))
	}
	m.Mprotect(base, base+arch.Addr(ps), mem.ProtRead)

	if hit && w.notify != nil {
		w.notify(wms.Notification{BA: f.Addr, EA: f.Addr + arch.WordBytes, PC: pc})
	}
	return nil
}

// Stats returns the underlying service's counters. Note that, unlike
// the software strategies, only writes that fault are counted: stores to
// unprotected pages never reach the WMS (that is the whole point of the
// strategy).
func (w *WMS) Stats() wms.Stats { return w.svc.Stats() }
