package prog

import (
	"strings"
	"testing"

	"perfclone/internal/isa"
)

// signatures spells out, per opcode, the register class of Rd, Rs1 and
// Rs2 as the functional simulator uses them: i integer, f
// floating-point, - ignored.
var signatures = [isa.NumOps]string{
	isa.OpAdd: "iii", isa.OpSub: "iii", isa.OpAnd: "iii", isa.OpOr: "iii",
	isa.OpXor: "iii", isa.OpShl: "iii", isa.OpShr: "iii", isa.OpSar: "iii",
	isa.OpAddi: "ii-", isa.OpLui: "i--", isa.OpSlt: "iii", isa.OpSltu: "iii",
	isa.OpMul: "iii", isa.OpDiv: "iii", isa.OpRem: "iii",
	isa.OpFAdd: "fff", isa.OpFSub: "fff", isa.OpFMul: "fff", isa.OpFDiv: "fff",
	isa.OpFNeg: "ff-", isa.OpFCmp: "iff", isa.OpCvtIF: "fi-", isa.OpCvtFI: "if-",
	isa.OpLd: "ii-", isa.OpLd4: "ii-", isa.OpLd1: "ii-", isa.OpFLd: "fi-",
	isa.OpSt: "-ii", isa.OpSt4: "-ii", isa.OpSt1: "-ii", isa.OpFSt: "-if",
	isa.OpBeq: "-ii", isa.OpBne: "-ii", isa.OpBlt: "-ii", isa.OpBge: "-ii", isa.OpBltu: "-ii",
	isa.OpJmp: "---", isa.OpHalt: "---",
}

// withInst wraps in in the smallest valid program around it: a second
// block with a halt after any instruction that is not a halt, which a
// branch or jump targets.
func withInst(in isa.Inst) *Program {
	p := &Program{Name: "x", Blocks: []Block{{Insts: []isa.Inst{in}}}}
	if in.Op != isa.OpHalt {
		in.Target = 1
		p.Blocks[0].Insts[0] = in
		p.Blocks = append(p.Blocks, Block{Insts: []isa.Inst{{Op: isa.OpHalt}}})
	}
	return p
}

// fields returns pointers to in's Rd, Rs1 and Rs2.
func fields(in *isa.Inst) [3]*isa.Reg { return [3]*isa.Reg{&in.Rd, &in.Rs1, &in.Rs2} }

// TestValidateOperandClasses builds every opcode with operands of the
// right class, and with each field it reads or writes replaced by NoReg,
// by a register of the other class, and by a value past the architected
// registers. Only the first must validate: funcsim indexes its register
// file by these fields. A field the opcode ignores may hold anything.
func TestValidateOperandClasses(t *testing.T) {
	for op := range isa.Op(isa.NumOps) {
		sig := signatures[op]
		good := isa.Inst{Op: op}
		for k, f := range fields(&good) {
			switch sig[k] {
			case 'i':
				*f = isa.IntReg(k + 1)
			case 'f':
				*f = isa.FPReg(k + 1)
			default:
				*f = isa.NoReg
			}
		}
		if err := withInst(good).Validate(); err != nil {
			t.Errorf("%s: valid operands rejected: %v", &good, err)
		}
		for k := range 3 {
			bad := []isa.Reg{isa.NoReg, 200}
			switch sig[k] {
			case 'i':
				bad = append(bad, isa.FPReg(3))
			case 'f':
				bad = append(bad, isa.IntReg(3), isa.RZero)
			default:
				// An ignored field: any value validates.
				for _, r := range []isa.Reg{isa.RZero, isa.FPReg(3), 200} {
					in := good
					*fields(&in)[k] = r
					if err := withInst(in).Validate(); err != nil {
						t.Errorf("%s: ignored field %d = %s rejected: %v", &in, k, r, err)
					}
				}
				continue
			}
			for _, r := range bad {
				in := good
				*fields(&in)[k] = r
				err := withInst(in).Validate()
				if err == nil || !strings.Contains(err.Error(), "bad ") {
					t.Errorf("%s: field %d = %s: want a bad-operand error, got %v", in.Op, k, r, err)
				}
			}
		}
	}
	if err := withInst(isa.Inst{Op: isa.Op(isa.NumOps)}).Validate(); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("unknown opcode: got %v", err)
	}
}

// TestValidateRejectsCrashingOperands pins the instructions that once
// passed Validate and then made the functional simulator index past its
// register file.
func TestValidateRejectsCrashingOperands(t *testing.T) {
	for _, src := range []string{
		"fadd f0, r1, r2",
		"add f1, r1, r2",
		"fld r1, 0(r2)",
		"add r1, -, r2",
		"add -, r1, r2",
	} {
		_, err := Parse(strings.NewReader(".B0:\n" + src + "\nhalt\n"))
		if err == nil || !strings.Contains(err.Error(), "bad ") {
			t.Errorf("%q: want a bad-operand error, got %v", src, err)
		}
	}
}
