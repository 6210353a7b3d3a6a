// Package isa defines the RISC instruction set used throughout the
// performance-cloning toolchain.
//
// The ISA is a small load/store architecture in the spirit of Alpha (the
// target ISA in the paper): 32 integer registers, 32 floating-point
// registers, byte-addressed memory, and fixed three-operand instructions.
// Programs in this ISA are executed by the functional simulator
// (internal/funcsim) for profiling and by the timing simulator
// (internal/uarch) for performance measurement.
package isa

import (
	"fmt"
	"strconv"
)

// Op enumerates every opcode in the ISA.
type Op uint8

// Opcodes. The integer/floating split mirrors the instruction-mix classes
// the paper profiles (Section 3.1.2): integer arithmetic, integer multiply,
// integer divide, FP arithmetic, FP multiply, FP divide, load, store, branch.
const (
	// Integer ALU.
	OpAdd  Op = iota // rd = rs1 + rs2
	OpSub            // rd = rs1 - rs2
	OpAnd            // rd = rs1 & rs2
	OpOr             // rd = rs1 | rs2
	OpXor            // rd = rs1 ^ rs2
	OpShl            // rd = rs1 << (rs2 & 63)
	OpShr            // rd = uint64(rs1) >> (rs2 & 63)
	OpSar            // rd = rs1 >> (rs2 & 63) (arithmetic)
	OpAddi           // rd = rs1 + imm
	OpLui            // rd = imm (load immediate)
	OpSlt            // rd = rs1 < rs2 ? 1 : 0
	OpSltu           // rd = uint64(rs1) < uint64(rs2) ? 1 : 0

	// Integer multiply / divide.
	OpMul // rd = rs1 * rs2
	OpDiv // rd = rs1 / rs2 (0 if rs2 == 0)
	OpRem // rd = rs1 % rs2 (0 if rs2 == 0)

	// Floating point.
	OpFAdd  // fd = fs1 + fs2
	OpFSub  // fd = fs1 - fs2
	OpFMul  // fd = fs1 * fs2
	OpFDiv  // fd = fs1 / fs2
	OpFNeg  // fd = -fs1
	OpFCmp  // rd = fs1 < fs2 ? 1 : 0 (int destination)
	OpCvtIF // fd = float64(rs1)
	// OpCvtFI: rd = fs1 truncated toward zero. NaN and ±Inf give 0, and
	// any other fs1 with |fs1| ≥ 2^63 gives MinInt64, the value amd64's
	// conversion produces (Go's int64(f) leaves it to the target, and
	// arm64 saturates).
	OpCvtFI

	// Memory. Effective address = rs1 + imm.
	OpLd  // rd = mem64[rs1+imm]
	OpLd4 // rd = sign-extended mem32[rs1+imm]
	OpLd1 // rd = zero-extended mem8[rs1+imm]
	OpSt  // mem64[rs1+imm] = rs2
	OpSt4 // mem32[rs1+imm] = low 32 bits of rs2
	OpSt1 // mem8[rs1+imm] = low 8 bits of rs2
	OpFLd // fd = float bits of mem64[rs1+imm]
	OpFSt // mem64[rs1+imm] = bits of fs2

	// Control. Branch targets are basic-block indices resolved by the
	// program builder; Target holds the taken successor.
	OpBeq  // taken if rs1 == rs2
	OpBne  // taken if rs1 != rs2
	OpBlt  // taken if rs1 < rs2
	OpBge  // taken if rs1 >= rs2
	OpBltu // taken if uint64(rs1) < uint64(rs2)
	OpJmp  // unconditional jump to Target
	OpHalt // stop execution

	numOps
)

// NumOps is the number of distinct opcodes.
const NumOps = int(numOps)

// Class groups opcodes into the categories the paper's instruction-mix
// profile uses.
type Class uint8

const (
	ClassIntALU Class = iota
	ClassIntMul
	ClassIntDiv
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassHalt
	numClasses
)

// NumClasses is the number of instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassIntALU: "int-alu",
	ClassIntMul: "int-mul",
	ClassIntDiv: "int-div",
	ClassFPAdd:  "fp-add",
	ClassFPMul:  "fp-mul",
	ClassFPDiv:  "fp-div",
	ClassLoad:   "load",
	ClassStore:  "store",
	ClassBranch: "branch",
	ClassJump:   "jump",
	ClassHalt:   "halt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

var opClass = [NumOps]Class{
	OpAdd: ClassIntALU, OpSub: ClassIntALU, OpAnd: ClassIntALU,
	OpOr: ClassIntALU, OpXor: ClassIntALU, OpShl: ClassIntALU,
	OpShr: ClassIntALU, OpSar: ClassIntALU, OpAddi: ClassIntALU,
	OpLui: ClassIntALU, OpSlt: ClassIntALU, OpSltu: ClassIntALU,
	OpMul: ClassIntMul,
	OpDiv: ClassIntDiv, OpRem: ClassIntDiv,
	OpFAdd: ClassFPAdd, OpFSub: ClassFPAdd, OpFNeg: ClassFPAdd,
	OpFCmp: ClassFPAdd, OpCvtIF: ClassFPAdd, OpCvtFI: ClassFPAdd,
	OpFMul: ClassFPMul,
	OpFDiv: ClassFPDiv,
	OpLd:   ClassLoad, OpLd4: ClassLoad, OpLd1: ClassLoad, OpFLd: ClassLoad,
	OpSt: ClassStore, OpSt4: ClassStore, OpSt1: ClassStore, OpFSt: ClassStore,
	OpBeq: ClassBranch, OpBne: ClassBranch, OpBlt: ClassBranch,
	OpBge: ClassBranch, OpBltu: ClassBranch,
	OpJmp:  ClassJump,
	OpHalt: ClassHalt,
}

// Class reports the instruction-mix class of the opcode.
func (op Op) Class() Class {
	if int(op) < NumOps {
		return opClass[op]
	}
	return ClassHalt
}

var opNames = [NumOps]string{
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpAddi: "addi", OpLui: "lui",
	OpSlt: "slt", OpSltu: "sltu",
	OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFCmp: "fcmp", OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpLd: "ld", OpLd4: "ld4", OpLd1: "ld1",
	OpSt: "st", OpSt4: "st4", OpSt1: "st1",
	OpFLd: "fld", OpFSt: "fst",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpBltu: "bltu",
	OpJmp: "jmp", OpHalt: "halt",
}

func (op Op) String() string {
	if int(op) < NumOps {
		return opNames[op]
	}
	return string(op.appendText(make([]byte, 0, 8)))
}

// appendText appends the opcode's mnemonic to b.
func (op Op) appendText(b []byte) []byte {
	if int(op) < NumOps {
		return append(b, opNames[op]...)
	}
	return append(strconv.AppendUint(append(b, "op("...), uint64(op), 10), ')')
}

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op.Class() == ClassBranch }

// IsMem reports whether op accesses memory.
func (op Op) IsMem() bool {
	c := op.Class()
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op.Class() == ClassLoad }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op.Class() == ClassStore }

// IsFP reports whether op's destination is a floating-point register.
func (op Op) IsFP() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpCvtIF, OpFLd:
		return true
	}
	return false
}

// MemBytes reports the access width in bytes of a memory opcode (0 for
// non-memory opcodes).
func (op Op) MemBytes() int {
	switch op {
	case OpLd, OpSt, OpFLd, OpFSt:
		return 8
	case OpLd4, OpSt4:
		return 4
	case OpLd1, OpSt1:
		return 1
	}
	return 0
}

// Reg identifies an architected register. Integer registers are 0..31 and
// floating-point registers are 32..63. Register 0 is hardwired to zero, as
// on Alpha/MIPS.
type Reg uint8

// Register file layout.
const (
	// RZero always reads as 0; writes are discarded.
	RZero Reg = 0
	// NumIntRegs is the number of architected integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architected floating-point registers.
	NumFPRegs = 32
	// NumRegs is the total architected register count.
	NumRegs = NumIntRegs + NumFPRegs
	// NoReg marks an absent operand.
	NoReg Reg = 255
)

// IntReg returns the i'th integer register.
func IntReg(i int) Reg { return Reg(i) }

// FPReg returns the i'th floating-point register.
func FPReg(i int) Reg { return Reg(NumIntRegs + i) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < NumRegs }

// Valid reports whether r names an architected register.
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string { return string(r.AppendText(make([]byte, 0, 8))) }

// AppendText appends the register's assembly name to b: r0..r31,
// f0..f31, "-" for NoReg and reg(N) for any other value.
func (r Reg) AppendText(b []byte) []byte {
	switch {
	case r == NoReg:
		return append(b, '-')
	case r < NumIntRegs:
		return strconv.AppendUint(append(b, 'r'), uint64(r), 10)
	case r < NumRegs:
		return strconv.AppendUint(append(b, 'f'), uint64(r-NumIntRegs), 10)
	}
	return append(strconv.AppendUint(append(b, "reg("...), uint64(r), 10), ')')
}

// Inst is one instruction. Instructions live inside basic blocks
// (internal/prog); a conditional branch or jump may appear only as the last
// instruction of a block, with Target naming the taken-successor block.
type Inst struct {
	Op     Op
	Rd     Reg   // destination (NoReg if none)
	Rs1    Reg   // first source (NoReg if none)
	Rs2    Reg   // second source (NoReg if none)
	Imm    int64 // immediate / address displacement
	Target int   // taken-successor block index for branches/jumps
}

// Dest returns the destination register, or NoReg.
func (in *Inst) Dest() Reg {
	if in.Op == OpHalt || in.Op == OpJmp || in.Op.IsBranch() || in.Op.IsStore() {
		return NoReg
	}
	return in.Rd
}

// Sources appends the source registers in actually reads to dst and
// returns it (opcode-aware: jumps and immediates have none, loads and
// unary ops read only Rs1).
func (in *Inst) Sources(dst []Reg) []Reg {
	switch {
	case in.Op == OpJmp, in.Op == OpHalt, in.Op == OpLui:
		return dst
	case in.Op == OpAddi, in.Op.IsLoad(),
		in.Op == OpFNeg, in.Op == OpCvtIF, in.Op == OpCvtFI:
		if in.Rs1 != NoReg {
			dst = append(dst, in.Rs1)
		}
		return dst
	default:
		if in.Rs1 != NoReg {
			dst = append(dst, in.Rs1)
		}
		if in.Rs2 != NoReg {
			dst = append(dst, in.Rs2)
		}
		return dst
	}
}

// String disassembles the instruction.
func (in *Inst) String() string { return string(in.AppendText(make([]byte, 0, 32))) }

// AppendText appends the instruction's assembly text, as String returns
// it, to b. Program dumps and store keys format through it, so a
// listing costs no allocation per instruction.
func (in *Inst) AppendText(b []byte) []byte {
	switch {
	case in.Op == OpHalt:
		return append(b, "halt"...)
	case in.Op == OpJmp:
		return strconv.AppendInt(append(b, "jmp .B"...), int64(in.Target), 10)
	case in.Op.IsBranch():
		b = append(appendRegs(in.Op.appendText(b), in.Rs1, in.Rs2), ", .B"...)
		return strconv.AppendInt(b, int64(in.Target), 10)
	case in.Op.IsStore():
		return in.appendMem(b, in.Rs2)
	case in.Op.IsLoad():
		return in.appendMem(b, in.Rd)
	case in.Op == OpAddi:
		return strconv.AppendInt(append(appendRegs(append(b, "addi"...), in.Rd, in.Rs1), ", "...), in.Imm, 10)
	case in.Op == OpLui:
		return strconv.AppendInt(append(appendRegs(append(b, "lui"...), in.Rd), ", "...), in.Imm, 10)
	case in.Op == OpFNeg, in.Op == OpCvtIF, in.Op == OpCvtFI:
		return appendRegs(in.Op.appendText(b), in.Rd, in.Rs1)
	default:
		return appendRegs(in.Op.appendText(b), in.Rd, in.Rs1, in.Rs2)
	}
}

// appendRegs appends the operand list " r1, r2, ..." to b.
func appendRegs(b []byte, regs ...Reg) []byte {
	for i, r := range regs {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		b = r.AppendText(b)
	}
	return b
}

// appendMem appends a memory instruction, "op r, imm(base)".
func (in *Inst) appendMem(b []byte, r Reg) []byte {
	b = strconv.AppendInt(append(appendRegs(in.Op.appendText(b), r), ", "...), in.Imm, 10)
	return append(in.Rs1.AppendText(append(b, '(')), ')')
}

// Latency returns the execution latency in cycles used by the timing
// simulator for each class. These follow common SimpleScalar defaults.
func (c Class) Latency() int {
	switch c {
	case ClassIntALU:
		return 1
	case ClassIntMul:
		return 3
	case ClassIntDiv:
		return 20
	case ClassFPAdd:
		return 2
	case ClassFPMul:
		return 4
	case ClassFPDiv:
		return 12
	case ClassLoad:
		return 1 // plus cache latency
	case ClassStore:
		return 1
	default:
		return 1
	}
}
