// Package kernel assembles the simulated machine — CPU, memory, heap
// allocator — and provides the operating-system services the paper's
// experiment depends on: system calls, a user-visible mprotect, signal
// (fault/trap) delivery with realistic delivery costs, and program
// loading.
//
// Service costs default to the paper's SPARCstation 2 / SunOS 4.1.1
// measurements (Table 2), converted from microseconds to cycles at
// 40 MHz, so live runs on the simulator and the analytical models share
// one time base.
package kernel

import (
	"bytes"
	"fmt"

	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/cpu"
	"edb/internal/heap"
	"edb/internal/isa"
	"edb/internal/mem"
)

// System call numbers. Arguments are passed in r2..r5, results returned
// in r1.
const (
	SysExit    = 0 // r2 = exit code
	SysPrint   = 1 // r2 = integer to print
	SysAlloc   = 2 // r2 = size in bytes; r1 = address
	SysFree    = 3 // r2 = address
	SysRealloc = 4 // r2 = address, r3 = new size; r1 = new address
	SysCycles  = 5 // r1 = low 32 bits of the cycle counter (getrusage analogue)
	SysBzero   = 6 // r2 = address, r3 = length in bytes: zero the range
)

// Syscall argument/result registers.
const (
	RegRet  = isa.Reg(1)
	RegArg0 = isa.Reg(2)
	RegArg1 = isa.Reg(3)
)

// Costs models kernel and library service time in cycles. The defaults
// are derived from the paper's Table 2 and Appendix A; see model.Paper
// for the corresponding microsecond values.
type Costs struct {
	// Syscall is the base cost of entering and leaving the kernel.
	Syscall uint64
	// Print models the library+kernel cost of printing one integer.
	Print uint64
	// Alloc, Free, Realloc model the C library allocator.
	Alloc, Free, Realloc uint64
	// SignalDeliver is the cost of taking a write fault and dispatching
	// a user-level handler, excluding any mprotect the handler performs
	// and excluding instruction emulation.
	SignalDeliver uint64
	// Emulate is the cost of decoding and emulating a faulting store in
	// a handler and arranging continuation.
	Emulate uint64
	// MprotectOn is the cost of write-protecting one page (VMProtect).
	MprotectOn uint64
	// MprotectOff is the cost of unprotecting one page (VMUnprotect).
	MprotectOff uint64
	// TrapDeliver is the cost of taking a TRAP instruction into a
	// user-level handler and continuing (TPFaultHandler minus emulation).
	TrapDeliver uint64
	// HWMonitorFault is the cost of a native-hardware monitor-register
	// fault delivered to a user handler (NHFaultHandler).
	HWMonitorFault uint64
}

// DefaultCosts returns the paper-calibrated cost model.
//
// The paper's composite timings decompose as follows: VMFaultHandler
// (561 µs) = signal delivery + emulation + one protect (80 µs) + one
// unprotect (299 µs) performed inside the handler, so delivery+emulation
// is 182 µs. TPFaultHandler (102 µs) covers trap delivery + emulation.
// NHFaultHandler (131 µs) covers a monitor-register fault + skip.
func DefaultCosts() Costs {
	us := arch.MicrosToCycles
	return Costs{
		Syscall:        us(15),
		Print:          us(120),
		Alloc:          us(6),
		Free:           us(5),
		Realloc:        us(9),
		SignalDeliver:  us(561-80-299) - us(12), // 182µs total with Emulate
		Emulate:        us(12),
		MprotectOn:     us(80),
		MprotectOff:    us(299),
		TrapDeliver:    us(102) - us(12), // 102µs total with Emulate
		HWMonitorFault: us(131),
	}
}

// Machine is one loaded debuggee: CPU + memory + kernel state.
type Machine struct {
	Mem   *mem.Memory
	CPU   *cpu.CPU
	Heap  *heap.Allocator
	Image *asm.Image
	Costs Costs

	// Out accumulates SysPrint output, one integer per line.
	Out bytes.Buffer

	// OnAlloc/OnFree/OnRealloc forward the allocator callbacks with the
	// current machine available (the tracer hooks these).
	OnAlloc   func(r arch.Range)
	OnFree    func(r arch.Range)
	OnRealloc func(old, new arch.Range)
}

// NewMachine builds a machine with the given MMU page size and loads the
// image: text (read+exec), initialised data, entry PC, and an initial
// stack.
func NewMachine(img *asm.Image, pageSize int) (*Machine, error) {
	m := &Machine{
		Mem:   mem.New(pageSize),
		Heap:  heap.New(),
		Image: img,
		Costs: DefaultCosts(),
	}
	m.CPU = cpu.New(m.Mem)

	// Load text.
	for i, w := range img.Text {
		a := arch.TextBase + arch.Addr(i*arch.WordBytes)
		if err := m.Mem.KernelWriteWord(a, arch.Word(w)); err != nil {
			return nil, fmt.Errorf("kernel: loading text: %w", err)
		}
	}
	tr := img.TextRange()
	m.Mem.Protect(tr.BA, tr.EA, mem.ProtRead|mem.ProtExec)

	// Initialised data.
	for a, w := range img.DataInit {
		if err := m.Mem.KernelWriteWord(a, arch.Word(w)); err != nil {
			return nil, fmt.Errorf("kernel: loading data: %w", err)
		}
	}

	// Initial registers: empty stack, entry PC. The entry function's
	// prologue establishes its own frame.
	m.CPU.Regs[isa.SP] = arch.Word(arch.StackBase)
	m.CPU.Regs[isa.FP] = arch.Word(arch.StackBase)
	m.CPU.PC = img.Entry
	m.CPU.Syscall = m.syscall

	// Allocator callbacks forward to the machine-level hooks.
	m.Heap.OnAlloc = func(r arch.Range) {
		if m.OnAlloc != nil {
			m.OnAlloc(r)
		}
	}
	m.Heap.OnFree = func(r arch.Range) {
		if m.OnFree != nil {
			m.OnFree(r)
		}
	}
	m.Heap.OnRealloc = func(old, new arch.Range) {
		if m.OnRealloc != nil {
			m.OnRealloc(old, new)
		}
	}
	return m, nil
}

func (m *Machine) syscall(c *cpu.CPU, code int) error {
	c.ChargeCycles(m.Costs.Syscall)
	switch code {
	case SysExit:
		c.Halt(int32(c.Regs[RegArg0]))
	case SysPrint:
		c.ChargeCycles(m.Costs.Print)
		fmt.Fprintf(&m.Out, "%d\n", int32(c.Regs[RegArg0]))
	case SysAlloc:
		c.ChargeCycles(m.Costs.Alloc)
		addr, err := m.Heap.Alloc(int(c.Regs[RegArg0]))
		if err != nil {
			return err
		}
		// C semantics: malloc'd memory is uninitialised; our frames are
		// zeroed on first touch, which is close enough to calloc. Reuse
		// after free can expose stale data, as in C.
		c.Regs[RegRet] = arch.Word(addr)
	case SysFree:
		c.ChargeCycles(m.Costs.Free)
		if err := m.Heap.Free(arch.Addr(c.Regs[RegArg0])); err != nil {
			return err
		}
	case SysRealloc:
		c.ChargeCycles(m.Costs.Realloc)
		addr, err := m.Heap.Realloc(arch.Addr(c.Regs[RegArg0]), int(c.Regs[RegArg1]))
		if err != nil {
			return err
		}
		c.Regs[RegRet] = arch.Word(addr)
	case SysCycles:
		c.Regs[RegRet] = arch.Word(c.Cycles)
	case SysBzero:
		// The C library's memset/bzero: its stores are library writes,
		// which the paper's event trace excludes (§6), so the kernel
		// performs them with kernel privilege. Cost: a word per cycle
		// plus call overhead.
		ba := arch.Addr(c.Regs[RegArg0])
		n := arch.Addr(c.Regs[RegArg1])
		if !arch.Aligned(ba) || n%arch.WordBytes != 0 {
			return fmt.Errorf("kernel: bzero of unaligned range %#x+%d", uint32(ba), uint32(n))
		}
		for a := ba; a < ba+n; a += arch.WordBytes {
			if err := m.Mem.KernelWriteWord(a, 0); err != nil {
				return err
			}
		}
		c.ChargeCycles(uint64(n / arch.WordBytes))
	default:
		return fmt.Errorf("kernel: unknown syscall %d", code)
	}
	return nil
}

// Mprotect changes page protection on behalf of a user-level service,
// charging the measured per-page mprotect cost. It is the API the
// VirtualMemory WMS uses (the paper's Protect()).
func (m *Machine) Mprotect(ba, ea arch.Addr, p mem.Prot) {
	if ea <= ba {
		return
	}
	pages := uint64(arch.PageNum(ea-1, m.Mem.PageSize()) - arch.PageNum(ba, m.Mem.PageSize()) + 1)
	if p&mem.ProtWrite != 0 {
		m.CPU.ChargeCycles(pages * m.Costs.MprotectOff)
	} else {
		m.CPU.ChargeCycles(pages * m.Costs.MprotectOn)
	}
	m.Mem.Protect(ba, ea, p)
}

// RegisterFaultHandler installs a user-level write-fault handler. The
// kernel charges signal-delivery time before dispatching, mirroring the
// SunOS signal mechanism the paper measures.
func (m *Machine) RegisterFaultHandler(h func(mch *Machine, f *mem.Fault, in isa.Inst, pc arch.Addr) error) {
	m.CPU.FaultHandler = func(c *cpu.CPU, f *mem.Fault, in isa.Inst, pc arch.Addr) error {
		c.ChargeCycles(m.Costs.SignalDeliver)
		return h(m, f, in, pc)
	}
}

// RegisterTrapHandler installs a user-level trap handler (the TrapPatch
// WMS). Delivery cost is charged before dispatch.
func (m *Machine) RegisterTrapHandler(h func(mch *Machine, code int, pc arch.Addr) error) {
	m.CPU.TrapHandler = func(c *cpu.CPU, code int, pc arch.Addr) error {
		c.ChargeCycles(m.Costs.TrapDeliver)
		return h(m, code, pc)
	}
}

// EmulateStore performs a faulting or trapped store with kernel
// privilege and charges the emulation cost. in must be a SW instruction;
// the effective address is computed from the current registers.
func (m *Machine) EmulateStore(in isa.Inst) (arch.Addr, error) {
	if in.Op != isa.SW {
		return 0, fmt.Errorf("kernel: EmulateStore on %v", in.Op)
	}
	m.CPU.ChargeCycles(m.Costs.Emulate)
	a := arch.Addr(m.CPU.Regs[in.RS1] + arch.Word(in.Imm))
	if err := m.Mem.KernelWriteWord(a, m.CPU.Regs[in.RD]); err != nil {
		return 0, err
	}
	return a, nil
}

// Run executes the program to completion with the given instruction
// budget.
func (m *Machine) Run(fuel uint64) error {
	return m.CPU.Run(fuel)
}

// BaseSeconds converts the cycle clock to simulated seconds.
func (m *Machine) BaseSeconds() float64 { return m.CPU.Seconds() }
