// Package isa defines the instruction set of the simulated machine: a
// small 32-bit RISC in the SPARC mould. Every instruction occupies one
// 32-bit word in simulated memory, so code patching (replacing a store
// with a trap, as the paper's TrapPatch strategy does) is a single word
// write, and inline checks (CodePatch) are word-granular insertions.
//
// Encoding (big fields first):
//
//	bits 31..26  opcode
//	R-type: rd[25:21] rs1[20:16] rs2[15:11] (rest zero)
//	I-type: ra[25:21] rb[20:16] imm16[15:0] (signed)
//	J-type: imm26[25:0] (absolute word index of the target)
//
// Field roles by instruction class:
//
//	loads    LW  ra=dest, rb=base, imm=byte offset
//	stores   SW  ra=src,  rb=base, imm=byte offset
//	branches Bcc ra,rb compared, imm = signed word offset from next pc
//	JALR     ra=link dest, rb=target register, imm added to target
//	SYS/TRAP imm = service / trap-table index
package isa

import "fmt"

// Reg is a register number (0..31).
type Reg uint8

// Register conventions. R0 is hard-wired to zero. SP/FP/RA follow the
// usual callee conventions of the mini-C compiler. AT and AT2 are
// assembler temporaries reserved for pseudo-instruction expansion and
// for the CodePatch instrumentation (the paper passes the checked target
// address "via an available register").
const (
	R0    Reg = 0  // always zero
	RV    Reg = 1  // return value
	PLink Reg = 24 // link register for patch-inserted check calls
	AT    Reg = 26 // assembler temporary (codegen scratch)
	AT2   Reg = 27 // second assembler/patch temporary
	GP    Reg = 28 // global pointer (unused by codegen, reserved)
	SP    Reg = 29 // stack pointer
	FP    Reg = 30 // frame pointer
	RA    Reg = 31 // return address
)

// NumRegs is the size of the register file.
const NumRegs = 32

// Op is an opcode.
type Op uint8

// Opcodes. The zero value is reserved as an illegal instruction so that
// executing zeroed memory faults immediately.
const (
	ILL Op = iota // illegal

	// R-type ALU.
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SLT  // set if rs1 < rs2, signed
	SLTU // set if rs1 < rs2, unsigned
	SLL
	SRL
	SRA

	// I-type ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLLI
	SRLI
	SRAI
	LUI // ra = imm16 << 16

	// Memory.
	LW
	SW

	// Control.
	BEQ
	BNE
	BLT
	BGE
	JAL  // link in RA, J-type absolute word target
	JALR // link in ra, target rb+imm

	// System.
	SYS  // system call, service number in imm
	TRAP // software trap, trap-table index in imm (used by TrapPatch)

	numOps
)

var opNames = [numOps]string{
	ILL: "ill", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	AND: "and", OR: "or", XOR: "xor", SLT: "slt", SLTU: "sltu",
	SLL: "sll", SRL: "srl", SRA: "sra",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLTI: "slti",
	SLLI: "slli", SRLI: "srli", SRAI: "srai", LUI: "lui",
	LW: "lw", SW: "sw",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", JAL: "jal", JALR: "jalr",
	SYS: "sys", TRAP: "trap",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Valid reports whether the opcode is a defined instruction.
func (o Op) Valid() bool { return o > ILL && o < numOps }

// Class describes the encoding family of an opcode.
type Class int

// Encoding classes.
const (
	ClassR Class = iota
	ClassI
	ClassJ
)

// ClassOf returns the encoding class of an opcode.
func ClassOf(op Op) Class {
	switch op {
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SLT, SLTU, SLL, SRL, SRA:
		return ClassR
	case JAL:
		return ClassJ
	default:
		return ClassI
	}
}

// IsBranch reports whether the opcode is a conditional branch.
func IsBranch(op Op) bool { return op == BEQ || op == BNE || op == BLT || op == BGE }

// IsStore reports whether the opcode writes memory. The paper's software
// strategies instrument exactly these instructions.
func IsStore(op Op) bool { return op == SW }

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	RD  Reg   // R-type dest / I-type field A
	RS1 Reg   // R-type src1 / I-type field B
	RS2 Reg   // R-type src2
	Imm int32 // I-type: sign-extended 16 bits; J-type: 26-bit word index
}

// Cost returns the base cycle cost of the instruction, excluding any
// kernel service time (SYS and TRAP charge their service cost separately)
// and excluding the taken-branch penalty.
func (in Inst) Cost() uint64 {
	switch in.Op {
	case LW, SW:
		return 2
	case JAL, JALR:
		return 2
	case MUL:
		return 4
	case DIV, REM:
		return 12
	default:
		return 1
	}
}

// BranchTakenPenalty is the extra cycle charged when a branch is taken.
const BranchTakenPenalty = 1

const (
	opShift  = 26
	rdShift  = 21
	rs1Shift = 16
	rs2Shift = 11
	regMask  = 0x1f
	immMask  = 0xffff
	j26Mask  = 0x03ff_ffff
)

// Encode packs the instruction into its 32-bit memory representation.
func Encode(in Inst) uint32 {
	w := uint32(in.Op) << opShift
	switch ClassOf(in.Op) {
	case ClassR:
		w |= uint32(in.RD&regMask) << rdShift
		w |= uint32(in.RS1&regMask) << rs1Shift
		w |= uint32(in.RS2&regMask) << rs2Shift
	case ClassI:
		w |= uint32(in.RD&regMask) << rdShift
		w |= uint32(in.RS1&regMask) << rs1Shift
		w |= uint32(in.Imm) & immMask
	case ClassJ:
		w |= uint32(in.Imm) & j26Mask
	}
	return w
}

// Decode unpacks a 32-bit word into an instruction. Decoding never
// fails; illegal opcodes decode with Op.Valid() == false and fault at
// execution time.
func Decode(w uint32) Inst {
	op := Op(w >> opShift)
	in := Inst{Op: op}
	if op >= numOps {
		in.Op = ILL
		return in
	}
	switch ClassOf(op) {
	case ClassR:
		in.RD = Reg(w >> rdShift & regMask)
		in.RS1 = Reg(w >> rs1Shift & regMask)
		in.RS2 = Reg(w >> rs2Shift & regMask)
	case ClassI:
		in.RD = Reg(w >> rdShift & regMask)
		in.RS1 = Reg(w >> rs1Shift & regMask)
		in.Imm = int32(int16(w & immMask)) // sign extend
	case ClassJ:
		imm := w & j26Mask
		// Sign-extend 26 bits (targets are absolute word indices, so in
		// practice non-negative, but keep the encoding symmetric).
		if imm&(1<<25) != 0 {
			imm |= ^uint32(j26Mask)
		}
		in.Imm = int32(imm)
	}
	return in
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch {
	case in.Op == LW:
		return fmt.Sprintf("lw   r%d, %d(r%d)", in.RD, in.Imm, in.RS1)
	case in.Op == SW:
		return fmt.Sprintf("sw   r%d, %d(r%d)", in.RD, in.Imm, in.RS1)
	case IsBranch(in.Op):
		return fmt.Sprintf("%-4s r%d, r%d, %+d", in.Op, in.RD, in.RS1, in.Imm)
	case in.Op == JAL:
		return fmt.Sprintf("jal  %#x", uint32(in.Imm)*4)
	case in.Op == JALR:
		return fmt.Sprintf("jalr r%d, r%d, %d", in.RD, in.RS1, in.Imm)
	case in.Op == LUI:
		return fmt.Sprintf("lui  r%d, %#x", in.RD, uint16(in.Imm))
	case in.Op == SYS:
		return fmt.Sprintf("sys  %d", in.Imm)
	case in.Op == TRAP:
		return fmt.Sprintf("trap %d", in.Imm)
	case ClassOf(in.Op) == ClassR:
		return fmt.Sprintf("%-4s r%d, r%d, r%d", in.Op, in.RD, in.RS1, in.RS2)
	case in.Op == ILL:
		return "ill"
	default: // I-type ALU
		return fmt.Sprintf("%-4s r%d, r%d, %d", in.Op, in.RD, in.RS1, in.Imm)
	}
}

// FitsImm16 reports whether v is representable as the signed 16-bit
// immediate of an I-type instruction.
func FitsImm16(v int32) bool { return v >= -32768 && v <= 32767 }
