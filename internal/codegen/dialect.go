package codegen

import (
	"fmt"

	"perfclone/internal/isa"
)

// Dialect selects the assembly mnemonic set embedded in the generated C.
// Section 6 of the paper notes a clone is ISA-specific and suggests
// retargeting; because the emitter works from the abstract program, a
// dialect is just a mnemonic table.
type Dialect string

// Supported dialects.
const (
	// DialectGeneric uses the repository ISA's own mnemonics (the
	// default, matching the disassembler).
	DialectGeneric Dialect = "generic"
	// DialectRISC emits RISC-V-flavoured mnemonics.
	DialectRISC Dialect = "riscv"
	// DialectARM emits AArch64-flavoured mnemonics.
	DialectARM Dialect = "arm64"
)

// mnemonics maps each opcode per dialect. Entries fall back to the
// generic name when a dialect has no special spelling.
var mnemonics = map[Dialect]map[isa.Op]string{
	DialectRISC: {
		isa.OpAdd: "add", isa.OpSub: "sub", isa.OpAnd: "and",
		isa.OpOr: "or", isa.OpXor: "xor",
		isa.OpShl: "sll", isa.OpShr: "srl", isa.OpSar: "sra",
		isa.OpAddi: "addi", isa.OpLui: "li",
		isa.OpSlt: "slt", isa.OpSltu: "sltu",
		isa.OpMul: "mul", isa.OpDiv: "div", isa.OpRem: "rem",
		isa.OpFAdd: "fadd.d", isa.OpFSub: "fsub.d",
		isa.OpFMul: "fmul.d", isa.OpFDiv: "fdiv.d",
		isa.OpFNeg: "fneg.d", isa.OpFCmp: "flt.d",
		isa.OpCvtIF: "fcvt.d.l", isa.OpCvtFI: "fcvt.l.d",
		isa.OpLd: "ld", isa.OpLd4: "lw", isa.OpLd1: "lbu",
		isa.OpSt: "sd", isa.OpSt4: "sw", isa.OpSt1: "sb",
		isa.OpFLd: "fld", isa.OpFSt: "fsd",
	},
	DialectARM: {
		isa.OpAdd: "add", isa.OpSub: "sub", isa.OpAnd: "and",
		isa.OpOr: "orr", isa.OpXor: "eor",
		isa.OpShl: "lsl", isa.OpShr: "lsr", isa.OpSar: "asr",
		isa.OpAddi: "add", isa.OpLui: "mov",
		isa.OpSlt: "cmp;cset.lt", isa.OpSltu: "cmp;cset.lo",
		isa.OpMul: "mul", isa.OpDiv: "sdiv", isa.OpRem: "msub",
		isa.OpFAdd: "fadd", isa.OpFSub: "fsub",
		isa.OpFMul: "fmul", isa.OpFDiv: "fdiv",
		isa.OpFNeg: "fneg", isa.OpFCmp: "fcmp",
		isa.OpCvtIF: "scvtf", isa.OpCvtFI: "fcvtzs",
		isa.OpLd: "ldr", isa.OpLd4: "ldrsw", isa.OpLd1: "ldrb",
		isa.OpSt: "str", isa.OpSt4: "str.w", isa.OpSt1: "strb",
		isa.OpFLd: "ldr.d", isa.OpFSt: "str.d",
	},
}

// mnemonicTable returns the dialect spelling of every opcode.
func mnemonicTable(d Dialect) (t [isa.NumOps]string) {
	for op := range t {
		if m, ok := mnemonics[d][isa.Op(op)]; ok {
			t[op] = m
		} else {
			t[op] = isa.Op(op).String()
		}
	}
	return t
}

// validDialect reports whether d names a known dialect.
func validDialect(d Dialect) error {
	switch d {
	case "", DialectGeneric, DialectRISC, DialectARM:
		return nil
	}
	return fmt.Errorf("codegen: unknown dialect %q", d)
}
