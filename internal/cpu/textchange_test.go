package cpu_test

import (
	"errors"
	"testing"

	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/cpu"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/mem"
)

// Changes to text that land while the program runs must take effect at
// the very next fetch of the changed word, whether or not the word has
// executed before. Each test executes the word first, changes it, and
// checks what the next execution does.

// machine loads raw instructions at TextBase (read+exec) and returns a
// kernel machine about to run the first one. SYS 0 exits with r2.
func machine(t *testing.T, code []isa.Inst) *kernel.Machine {
	t.Helper()
	img := &asm.Image{Entry: arch.TextBase}
	for _, in := range code {
		img.Text = append(img.Text, isa.Encode(in))
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wordAt is the text address of instruction i.
func wordAt(i int) arch.Addr { return arch.TextBase + arch.Addr(i*arch.WordBytes) }

// runSteps retires exactly n instructions.
func runSteps(t *testing.T, m *kernel.Machine, n uint64) {
	t.Helper()
	if err := m.Run(n); !errors.Is(err, cpu.ErrFuelExhausted) {
		t.Fatalf("running %d instructions: got %v, want the budget to run out", n, err)
	}
}

// memFault extracts the memory fault behind a fatal execution error.
func memFault(t *testing.T, err error) (*cpu.ExecError, *mem.Fault) {
	t.Helper()
	var ee *cpu.ExecError
	var f *mem.Fault
	if !errors.As(err, &ee) || !errors.As(err, &f) {
		t.Fatalf("got %v, want an execution error carrying a memory fault", err)
	}
	return ee, f
}

func TestMprotectRemovingExecFaultsAtNextFetch(t *testing.T) {
	// A counted loop: its body has executed before the page loses exec.
	m := machine(t, []isa.Inst{
		{Op: isa.ADDI, RD: 5, RS1: 0, Imm: 100},
		{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 1},  // loop:
		{Op: isa.ADDI, RD: 5, RS1: 5, Imm: -1}, //
		{Op: isa.BNE, RD: 5, RS1: 0, Imm: -3},  // -> loop
		{Op: isa.SYS},
	})
	runSteps(t, m, 7) // the set-up and two iterations
	pc := m.CPU.PC
	if pc != wordAt(1) {
		t.Fatalf("pc %#x after two iterations, want the loop head %#x", uint32(pc), uint32(wordAt(1)))
	}
	m.Mprotect(arch.TextBase, arch.TextBase+arch.WordBytes, mem.ProtRead)
	ee, f := memFault(t, m.Run(1000))
	if ee.PC != pc || f.Kind != mem.FaultProtection || f.Access != mem.AccessFetch || f.Addr != pc {
		t.Fatalf("got %v, want an exec-protection fetch fault at %#x", ee, uint32(pc))
	}
	if m.CPU.Regs[1] != 2 {
		t.Fatalf("r1 = %d after the fault, want 2: an instruction retired from a non-exec page", m.CPU.Regs[1])
	}

	// Giving exec back resumes the loop where it stopped.
	m.Mprotect(arch.TextBase, arch.TextBase+arch.WordBytes, mem.ProtRead|mem.ProtExec)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.CPU.Regs[1] != 100 {
		t.Fatalf("r1 = %d after resuming, want 100", m.CPU.Regs[1])
	}
}

func TestUserStoreReplacesExecutedInstruction(t *testing.T) {
	patched := isa.Inst{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 100}
	m := machine(t, []isa.Inst{
		{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 1}, // the word the program rewrites
		{Op: isa.SW, RD: 6, RS1: 7, Imm: 0},   // text[0] = r6
		{Op: isa.ADDI, RD: 5, RS1: 5, Imm: -1},
		{Op: isa.BNE, RD: 5, RS1: 0, Imm: -4}, // -> text[0]
		{Op: isa.SYS},
	})
	m.Mprotect(arch.TextBase, arch.TextBase+arch.WordBytes, mem.ProtRead|mem.ProtWrite|mem.ProtExec)
	m.CPU.Regs[5] = 2
	m.CPU.Regs[6] = arch.Word(isa.Encode(patched))
	m.CPU.Regs[7] = arch.Word(wordAt(0))
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	// First pass adds 1 and then stores the patch; the second pass runs
	// the patched word.
	if m.CPU.Regs[1] != 101 {
		t.Fatalf("r1 = %d, want 101: the second pass ran the overwritten instruction", m.CPU.Regs[1])
	}
	if m.CPU.Stores != 2 {
		t.Fatalf("Stores = %d, want 2", m.CPU.Stores)
	}
}

func TestJALRToUnalignedTextAddressFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		jump isa.Inst
	}{
		{"register target", isa.Inst{Op: isa.JALR, RD: 0, RS1: 8, Imm: 2}},
		{"constant target", isa.Inst{Op: isa.JALR, RD: isa.PLink, RS1: 0, Imm: int32(arch.TextBase) + 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine(t, []isa.Inst{
				{Op: isa.ADDI, RD: 8, RS1: 0, Imm: int32(arch.TextBase)},
				tc.jump, // to TextBase+2, inside the already-executed first word
				{Op: isa.SYS},
			})
			target := arch.TextBase + 2
			ee, f := memFault(t, m.Run(1000))
			if ee.PC != target || f.Kind != mem.FaultAlignment || f.Access != mem.AccessFetch || f.Addr != target {
				t.Fatalf("got %v, want an alignment fetch fault at %#x", ee, uint32(target))
			}
		})
	}
}

func TestRegisterHostFuncAtExecutedAddress(t *testing.T) {
	sub := wordAt(5)
	for _, tc := range []struct {
		name string
		call isa.Inst
	}{
		{"jal", isa.Inst{Op: isa.JAL, Imm: int32(sub / arch.WordBytes)}},
		{"jalr r0", isa.Inst{Op: isa.JALR, RD: isa.RA, RS1: 0, Imm: int32(sub)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine(t, []isa.Inst{
				tc.call, // loop: call sub
				{Op: isa.ADDI, RD: 5, RS1: 5, Imm: -1},
				{Op: isa.BNE, RD: 5, RS1: 0, Imm: -3}, // -> loop
				{Op: isa.SYS},
				{Op: isa.SYS},
				{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 1}, // sub: r1++
				{Op: isa.JALR, RD: 0, RS1: isa.RA, Imm: 0},
			})
			m.CPU.Regs[5] = 2
			runSteps(t, m, 3) // the first call runs sub in text
			if m.CPU.PC != wordAt(1) || m.CPU.Regs[1] != 1 {
				t.Fatalf("after the first call: pc %#x, r1 = %d; want %#x, 1", uint32(m.CPU.PC), m.CPU.Regs[1], uint32(wordAt(1)))
			}
			m.CPU.RegisterHostFunc(sub, func(c *cpu.CPU) error {
				c.Regs[1] += 100
				return nil
			})
			if err := m.Run(1000); err != nil {
				t.Fatal(err)
			}
			if m.CPU.Regs[1] != 101 {
				t.Fatalf("r1 = %d, want 101: the second call ran the host function", m.CPU.Regs[1])
			}
		})
	}
}
