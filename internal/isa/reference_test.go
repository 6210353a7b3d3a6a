package isa

import (
	"fmt"
	"math"
	"testing"
)

// The fmt-based formatters below are the instruction text as it was
// first written. They are kept as the oracle for AppendText: every
// program dump, and so every store key, is made of this text, so the
// strconv formatter must match them byte for byte.

func referenceOp(op Op) string {
	if int(op) < NumOps {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

func referenceReg(r Reg) string {
	switch {
	case r == NoReg:
		return "-"
	case r < NumIntRegs:
		return fmt.Sprintf("r%d", r)
	case r < NumRegs:
		return fmt.Sprintf("f%d", r-NumIntRegs)
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

func referenceInst(in *Inst) string {
	op, rd, rs1, rs2 := referenceOp(in.Op), referenceReg(in.Rd), referenceReg(in.Rs1), referenceReg(in.Rs2)
	switch {
	case in.Op == OpHalt:
		return "halt"
	case in.Op == OpJmp:
		return fmt.Sprintf("jmp .B%d", in.Target)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, .B%d", op, rs1, rs2, in.Target)
	case in.Op.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", op, rs2, in.Imm, rs1)
	case in.Op.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", op, rd, in.Imm, rs1)
	case in.Op == OpAddi:
		return fmt.Sprintf("addi %s, %s, %d", rd, rs1, in.Imm)
	case in.Op == OpLui:
		return fmt.Sprintf("lui %s, %d", rd, in.Imm)
	case in.Op == OpFNeg, in.Op == OpCvtIF, in.Op == OpCvtFI:
		return fmt.Sprintf("%s %s, %s", op, rd, rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", op, rd, rs1, rs2)
	}
}

// checkText compares every formatter against the reference for in:
// Inst.String, Inst.AppendText onto a non-empty prefix, and Reg.String
// and Reg.AppendText for each register field, plus Op.String.
func checkText(t *testing.T, in Inst) {
	t.Helper()
	want := referenceInst(&in)
	if got := in.String(); got != want {
		t.Fatalf("%+v: String %q, reference %q", in, got, want)
	}
	if got := string(in.AppendText([]byte("\t"))); got != "\t"+want {
		t.Fatalf("%+v: AppendText %q, reference %q", in, got, "\t"+want)
	}
	if got, want := in.Op.String(), referenceOp(in.Op); got != want {
		t.Fatalf("op %d: String %q, reference %q", in.Op, got, want)
	}
	for _, r := range []Reg{in.Rd, in.Rs1, in.Rs2} {
		want := referenceReg(r)
		if got := r.String(); got != want {
			t.Fatalf("reg %d: String %q, reference %q", r, got, want)
		}
		if got := string(r.AppendText([]byte("x"))); got != "x"+want {
			t.Fatalf("reg %d: AppendText %q, reference %q", r, got, "x"+want)
		}
	}
}

// TestInstTextMatchesReference covers every opcode, one past the last
// and the largest, against every register value, with the extreme
// immediates and targets.
func TestInstTextMatchesReference(t *testing.T) {
	imms := []int64{0, -1, 7, math.MinInt64, math.MaxInt64}
	targets := []int{0, 12, -3, math.MaxInt, math.MinInt}
	for op := 0; op <= 255; op++ {
		if op > NumOps && op < 255 {
			continue
		}
		for r := 0; r <= 255; r++ {
			for k := range imms {
				checkText(t, Inst{
					Op: Op(op), Rd: Reg(r), Rs1: Reg(255 - r), Rs2: Reg(r ^ 0x21),
					Imm: imms[k], Target: targets[k],
				})
			}
		}
	}
}

// FuzzInstText fuzzes every field of an instruction, out-of-range
// opcodes and registers included, and checks the strconv formatter
// against the fmt reference.
func FuzzInstText(f *testing.F) {
	f.Add(uint8(OpAdd), uint8(3), uint8(1), uint8(2), int64(0), int64(0))
	f.Add(uint8(OpSt), uint8(NoReg), uint8(1), uint8(FPReg(4)), int64(-8), int64(0))
	f.Add(uint8(OpBltu), uint8(0), uint8(63), uint8(64), int64(0), int64(-1))
	f.Add(uint8(OpJmp), uint8(200), uint8(NoReg), uint8(NoReg), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(uint8(NumOps), uint8(254), uint8(32), uint8(31), int64(math.MaxInt64), int64(5))
	f.Add(uint8(255), uint8(255), uint8(255), uint8(255), int64(1), int64(1))
	f.Fuzz(func(t *testing.T, op, rd, rs1, rs2 uint8, imm, target int64) {
		checkText(t, Inst{Op: Op(op), Rd: Reg(rd), Rs1: Reg(rs1), Rs2: Reg(rs2), Imm: imm, Target: int(target)})
	})
}
