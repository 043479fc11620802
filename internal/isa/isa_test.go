package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRType(t *testing.T) {
	in := Inst{Op: ADD, RD: 5, RS1: 6, RS2: 7}
	got := Decode(Encode(in))
	if got != in {
		t.Errorf("roundtrip = %+v, want %+v", got, in)
	}
}

func TestEncodeDecodeIType(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, RD: 1, RS1: 2, Imm: 100},
		{Op: ADDI, RD: 1, RS1: 2, Imm: -100},
		{Op: ADDI, RD: 31, RS1: 31, Imm: -32768},
		{Op: LW, RD: 3, RS1: SP, Imm: -8},
		{Op: SW, RD: 3, RS1: FP, Imm: 32767},
		{Op: LUI, RD: 9, Imm: 0x40},
		{Op: BEQ, RD: 1, RS1: 2, Imm: -5},
		{Op: SYS, Imm: 7},
		{Op: TRAP, Imm: 1234},
	}
	for _, in := range cases {
		got := Decode(Encode(in))
		if got.Op != in.Op || got.RD != in.RD || got.RS1 != in.RS1 {
			t.Errorf("roundtrip %+v -> %+v", in, got)
		}
		// LUI imm is treated as unsigned 16 by consumers; compare low bits.
		if in.Op == LUI {
			if uint16(got.Imm) != uint16(in.Imm) {
				t.Errorf("LUI imm roundtrip %x -> %x", in.Imm, got.Imm)
			}
		} else if got.Imm != in.Imm {
			t.Errorf("imm roundtrip %+v -> %+v", in, got)
		}
	}
}

func TestEncodeDecodeJType(t *testing.T) {
	in := Inst{Op: JAL, Imm: 0x12345}
	got := Decode(Encode(in))
	if got.Op != JAL || got.Imm != 0x12345 {
		t.Errorf("JAL roundtrip: %+v", got)
	}
}

// Property: every valid instruction round-trips through encode/decode.
func TestRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Inst {
		op := Op(1 + rng.Intn(int(numOps)-1))
		in := Inst{Op: op}
		switch ClassOf(op) {
		case ClassR:
			in.RD = Reg(rng.Intn(32))
			in.RS1 = Reg(rng.Intn(32))
			in.RS2 = Reg(rng.Intn(32))
		case ClassI:
			in.RD = Reg(rng.Intn(32))
			in.RS1 = Reg(rng.Intn(32))
			in.Imm = int32(int16(rng.Uint32()))
		case ClassJ:
			in.Imm = int32(rng.Intn(1 << 20)) // word index within text
		}
		return in
	}
	for i := 0; i < 2000; i++ {
		in := gen()
		got := Decode(Encode(in))
		if in.Op == LUI {
			in.Imm = int32(int16(in.Imm)) // decoder sign-extends; callers mask
		}
		if got != in {
			t.Fatalf("roundtrip failed: %+v -> %08x -> %+v", in, Encode(in), got)
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	if got := Decode(0); got.Op != ILL {
		t.Errorf("Decode(0).Op = %v, want ILL", got.Op)
	}
	if got := Decode(0xffff_ffff); got.Op.Valid() {
		t.Errorf("Decode(all-ones) should be invalid, got %v", got.Op)
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(ADD) != ClassR || ClassOf(SW) != ClassI || ClassOf(JAL) != ClassJ {
		t.Error("ClassOf misclassified")
	}
	if ClassOf(SYS) != ClassI || ClassOf(TRAP) != ClassI {
		t.Error("SYS/TRAP should be I-class")
	}
}

func TestIsStoreIsBranch(t *testing.T) {
	if !IsStore(SW) || IsStore(LW) || IsStore(ADD) {
		t.Error("IsStore wrong")
	}
	for _, op := range []Op{BEQ, BNE, BLT, BGE} {
		if !IsBranch(op) {
			t.Errorf("IsBranch(%v) = false", op)
		}
	}
	if IsBranch(JAL) || IsBranch(ADD) {
		t.Error("IsBranch overbroad")
	}
}

func TestCosts(t *testing.T) {
	if (Inst{Op: ADD}).Cost() != 1 {
		t.Error("ALU cost")
	}
	if (Inst{Op: LW}).Cost() != 2 || (Inst{Op: SW}).Cost() != 2 {
		t.Error("memory cost")
	}
	if (Inst{Op: DIV}).Cost() <= (Inst{Op: MUL}).Cost() {
		t.Error("div should cost more than mul")
	}
}

func TestFitsImm16(t *testing.T) {
	if !FitsImm16(0) || !FitsImm16(-32768) || !FitsImm16(32767) {
		t.Error("in-range rejected")
	}
	if FitsImm16(-32769) || FitsImm16(32768) {
		t.Error("out-of-range accepted")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: SW, RD: 3, RS1: 30, Imm: -8}, "sw   r3, -8(r30)"},
		{Inst{Op: LW, RD: 4, RS1: 29, Imm: 12}, "lw   r4, 12(r29)"},
		{Inst{Op: ADD, RD: 1, RS1: 2, RS2: 3}, "add  r1, r2, r3"},
		{Inst{Op: SYS, Imm: 2}, "sys  2"},
		{Inst{Op: ILL}, "ill"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	// Branch and JAL forms at least mention their operands.
	b := Inst{Op: BNE, RD: 1, RS1: 2, Imm: -3}.String()
	if !strings.Contains(b, "bne") || !strings.Contains(b, "-3") {
		t.Errorf("branch disasm: %q", b)
	}
}

func TestOpStringTotal(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Error("out-of-range op name")
	}
}

// Property: encode is injective over the fields decode preserves.
func TestEncodeInjective(t *testing.T) {
	f := func(a, b uint32) bool {
		ia, ib := Decode(a), Decode(b)
		if ia == ib {
			return true
		}
		if !ia.Op.Valid() || !ib.Op.Valid() {
			return true
		}
		return Encode(ia) != Encode(ib) || ia == ib
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
