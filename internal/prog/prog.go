// Package prog defines the executable program representation shared by the
// functional simulator, the profiler, the timing simulator, and the clone
// generator: a list of basic blocks over the ISA in internal/isa, plus the
// initial data image of the program.
package prog

import (
	"fmt"
	"sync/atomic"

	"perfclone/internal/isa"
)

// Block is a basic block: straight-line instructions with at most one
// control-flow instruction, which must be last.
type Block struct {
	// Label is an optional human-readable name used in disassembly.
	Label string
	// Insts are the instructions of the block.
	Insts []isa.Inst
}

// Terminator returns the final instruction of the block, or nil if the
// block is empty.
func (b *Block) Terminator() *isa.Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// Segment is a named region of the initial memory image.
type Segment struct {
	Name string
	Base uint64
	Data []byte
}

// Program is a complete executable unit.
type Program struct {
	// Name identifies the program (e.g. the workload name).
	Name string
	// Blocks are the basic blocks; execution starts at Blocks[Entry].
	Blocks []Block
	// Entry is the index of the entry block.
	Entry int
	// Segments is the initial data image.
	Segments []Segment
	// MemSize is the highest address the program may touch plus one; the
	// simulators size memory from it.
	MemSize uint64

	// starts caches BlockStarts' table ([]uint32). An atomic.Value
	// rather than a sync.Once keeps Program copyable.
	starts atomic.Value
}

// NumStaticInsts returns the total static instruction count.
func (p *Program) NumStaticInsts() int {
	n := 0
	for i := range p.Blocks {
		n += len(p.Blocks[i].Insts)
	}
	return n
}

// BlockStarts returns the program's block-major static numbering: the
// instructions are numbered 0, 1, … in block order, entry bi is the id
// of block bi's first instruction, and the final entry is
// NumStaticInsts. It is the one numbering of static instructions: the
// functional simulator's retired ids, the dynamic trace's static table
// and InstAddr all use it. The table is built on first use and shared,
// so concurrent callers are safe and must not modify it. Blocks must not
// change shape once it is built.
func (p *Program) BlockStarts() []uint32 {
	if s, ok := p.starts.Load().([]uint32); ok {
		return s
	}
	s := make([]uint32, len(p.Blocks)+1)
	var id uint32
	for i := range p.Blocks {
		s[i] = id
		id += uint32(len(p.Blocks[i].Insts))
	}
	s[len(p.Blocks)] = id
	// Racing first callers store equal tables; either one serves.
	p.starts.Store(s)
	return s
}

// InstAddr returns a unique static "address" for instruction instIdx of
// block blockIdx, used as the PC by caches and branch predictors. Each
// instruction occupies 8 bytes of a synthetic text segment, in the
// BlockStarts order.
func (p *Program) InstAddr(blockIdx, instIdx int) uint64 {
	return textBase + (uint64(p.BlockStarts()[blockIdx])+uint64(instIdx))*8
}

// textBase is the base address of the synthetic text segment. It is placed
// far above any data segment so instruction and data addresses never alias.
const textBase = 1 << 40

// Validate checks structural invariants: control-flow instructions appear
// only at block ends, all targets are in range, every opcode is known,
// every register an opcode reads or writes is an architected register of
// the class it uses (an integer base address for memory operations, a
// floating-point operand for fadd, …), and the entry index is in range.
// It returns the first violation found.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("prog %q: no blocks", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Blocks) {
		return fmt.Errorf("prog %q: entry %d out of range", p.Name, p.Entry)
	}
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if len(b.Insts) == 0 {
			return fmt.Errorf("prog %q: block %d empty", p.Name, bi)
		}
		for ii := range b.Insts {
			in := &b.Insts[ii]
			isCtl := in.Op.IsBranch() || in.Op == isa.OpJmp || in.Op == isa.OpHalt
			if isCtl && ii != len(b.Insts)-1 {
				return fmt.Errorf("prog %q: block %d inst %d: control op %s not last", p.Name, bi, ii, in.Op)
			}
			if in.Op.IsBranch() || in.Op == isa.OpJmp {
				if in.Target < 0 || in.Target >= len(p.Blocks) {
					return fmt.Errorf("prog %q: block %d inst %d: target %d out of range", p.Name, bi, ii, in.Target)
				}
			}
			if int(in.Op) >= isa.NumOps {
				return fmt.Errorf("prog %q: block %d inst %d: unknown opcode %d", p.Name, bi, ii, in.Op)
			}
			for k, r := range [3]isa.Reg{in.Rd, in.Rs1, in.Rs2} {
				if want := operands[in.Op][k]; want != noOperand && regClassOf(r) != want {
					role := "source"
					if k == 0 {
						role = "dest"
					}
					return fmt.Errorf("prog %q: block %d inst %d: bad %s %s for %s (want %s register)", p.Name, bi, ii, role, r, in.Op, want)
				}
			}
			// Branches must fall through to bi+1; a branch in the last
			// block would fall off the program.
			if in.Op.IsBranch() && bi == len(p.Blocks)-1 {
				return fmt.Errorf("prog %q: block %d: conditional branch in final block has no fall-through", p.Name, bi)
			}
		}
		// Non-control final instructions also fall through.
		t := b.Terminator()
		isCtl := t.Op.IsBranch() || t.Op == isa.OpJmp || t.Op == isa.OpHalt
		if !isCtl && bi == len(p.Blocks)-1 {
			return fmt.Errorf("prog %q: final block %d falls off the program", p.Name, bi)
		}
	}
	for _, s := range p.Segments {
		if s.Base+uint64(len(s.Data)) > p.MemSize {
			return fmt.Errorf("prog %q: segment %q [%d,%d) exceeds MemSize %d", p.Name, s.Name, s.Base, s.Base+uint64(len(s.Data)), p.MemSize)
		}
	}
	return nil
}

// regClass is the register class of an instruction operand.
type regClass uint8

const (
	noOperand  regClass = iota // the opcode ignores the field
	intOperand                 // r0..r31
	fpOperand                  // f0..f31
)

func (c regClass) String() string {
	if c == fpOperand {
		return "floating-point"
	}
	return "integer"
}

// regClassOf reports the class of register r; NoReg and values beyond
// the architected registers are noOperand, which no operand accepts.
func regClassOf(r isa.Reg) regClass {
	switch {
	case r < isa.NumIntRegs:
		return intOperand
	case r.IsFP():
		return fpOperand
	}
	return noOperand
}

// operands gives, per opcode, the class of the Rd, Rs1 and Rs2 fields
// the functional simulator writes or reads; noOperand marks a field the
// opcode ignores.
var operands = [isa.NumOps][3]regClass{
	isa.OpAdd: {intOperand, intOperand, intOperand}, isa.OpSub: {intOperand, intOperand, intOperand},
	isa.OpAnd: {intOperand, intOperand, intOperand}, isa.OpOr: {intOperand, intOperand, intOperand},
	isa.OpXor: {intOperand, intOperand, intOperand}, isa.OpShl: {intOperand, intOperand, intOperand},
	isa.OpShr: {intOperand, intOperand, intOperand}, isa.OpSar: {intOperand, intOperand, intOperand},
	isa.OpAddi: {intOperand, intOperand, noOperand}, isa.OpLui: {intOperand, noOperand, noOperand},
	isa.OpSlt: {intOperand, intOperand, intOperand}, isa.OpSltu: {intOperand, intOperand, intOperand},
	isa.OpMul: {intOperand, intOperand, intOperand}, isa.OpDiv: {intOperand, intOperand, intOperand},
	isa.OpRem: {intOperand, intOperand, intOperand},

	isa.OpFAdd: {fpOperand, fpOperand, fpOperand}, isa.OpFSub: {fpOperand, fpOperand, fpOperand},
	isa.OpFMul: {fpOperand, fpOperand, fpOperand}, isa.OpFDiv: {fpOperand, fpOperand, fpOperand},
	isa.OpFNeg: {fpOperand, fpOperand, noOperand}, isa.OpFCmp: {intOperand, fpOperand, fpOperand},
	isa.OpCvtIF: {fpOperand, intOperand, noOperand}, isa.OpCvtFI: {intOperand, fpOperand, noOperand},

	isa.OpLd: {intOperand, intOperand, noOperand}, isa.OpLd4: {intOperand, intOperand, noOperand},
	isa.OpLd1: {intOperand, intOperand, noOperand}, isa.OpFLd: {fpOperand, intOperand, noOperand},
	isa.OpSt: {noOperand, intOperand, intOperand}, isa.OpSt4: {noOperand, intOperand, intOperand},
	isa.OpSt1: {noOperand, intOperand, intOperand}, isa.OpFSt: {noOperand, intOperand, fpOperand},

	isa.OpBeq: {noOperand, intOperand, intOperand}, isa.OpBne: {noOperand, intOperand, intOperand},
	isa.OpBlt: {noOperand, intOperand, intOperand}, isa.OpBge: {noOperand, intOperand, intOperand},
	isa.OpBltu: {noOperand, intOperand, intOperand},
	// OpJmp and OpHalt read and write no register.
}
