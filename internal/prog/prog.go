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
// only at block ends, all targets are in range, registers are valid, and
// the entry index is in range. It returns the first violation found.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("prog %q: no blocks", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Blocks) {
		return fmt.Errorf("prog %q: entry %d out of range", p.Name, p.Entry)
	}
	var srcs [2]isa.Reg // Sources' stack buffer: validating allocates nothing
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
			if d := in.Dest(); d != isa.NoReg && !d.Valid() {
				return fmt.Errorf("prog %q: block %d inst %d: bad dest %d", p.Name, bi, ii, d)
			}
			for _, s := range in.Sources(srcs[:0]) {
				if !s.Valid() {
					return fmt.Errorf("prog %q: block %d inst %d: bad source %d", p.Name, bi, ii, s)
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
