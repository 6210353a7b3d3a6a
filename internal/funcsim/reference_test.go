package funcsim

import (
	"encoding/binary"
	"fmt"
	"math"

	"perfclone/internal/isa"
)

// RunReference is a per-event interpreter loop, the oracle
// TestColumnsMatchReference, TestColumnsEdgeSweep and FuzzColumns hold
// RunColumns and the Event adapter to (exported to those external tests;
// it exists only in tests). It shares no code with RunColumns: it checks
// the limit before every instruction, executes each one through exec and
// its RZero-aware register helpers, and builds one Event per retired
// instruction, handing obs batches of up to EventChunk of them and
// flushing the batch on halt, on the limit, on an execution error and on
// falling off the program. It keeps its state in the Machine's register
// file and memory, so both loops are compared through the same
// accessors.
func (m *Machine) RunReference(lim Limits, obs BatchObserver) (Result, error) {
	var res Result
	var buf []Event
	if obs != nil {
		buf = make([]Event, 0, EventChunk)
	}
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := obs(buf)
		buf = buf[:0]
		return err
	}
	bi := m.prog.Entry
	for bi >= 0 {
		blk := &m.prog.Blocks[bi]
		next := bi + 1 // fall-through default
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			if lim.MaxInsts > 0 && res.Insts >= lim.MaxInsts {
				return res, flush()
			}
			addr, _, taken, nb, err := m.exec(in)
			if err != nil {
				if ferr := flush(); ferr != nil {
					return res, ferr
				}
				return res, err
			}
			if nb != fallThrough {
				next = nb
			}
			if obs != nil {
				nextBlock := next
				if in.Op == isa.OpHalt {
					nextBlock = -1
				}
				buf = append(buf, Event{
					Seq:       res.Insts,
					Block:     bi,
					Index:     ii,
					PC:        m.prog.InstAddr(bi, ii),
					Inst:      in,
					Addr:      addr,
					Taken:     taken,
					NextBlock: nextBlock,
				})
				if len(buf) == cap(buf) {
					if err := flush(); err != nil {
						return res, err
					}
				}
			}
			res.Insts++
			if in.Op == isa.OpHalt {
				res.Halted = true
				return res, flush()
			}
		}
		bi = next
		if bi >= len(m.prog.Blocks) {
			if err := flush(); err != nil {
				return res, err
			}
			return res, fmt.Errorf("funcsim: %s fell off program at block %d", m.prog.Name, bi)
		}
	}
	return res, flush()
}

// The register helpers below give RunReference the register model
// directly: RZero reads as 0 and discards writes, and an integer or
// floating-point access outside its class's registers panics.

func (m *Machine) get(r isa.Reg) int64 {
	if r == isa.RZero {
		return 0
	}
	return int64(m.reg[:isa.NumIntRegs][r])
}

func (m *Machine) getF(r isa.Reg) float64 {
	return math.Float64frombits(m.reg[isa.NumIntRegs:isa.NumRegs][r-isa.NumIntRegs])
}

func (m *Machine) set(r isa.Reg, v int64) {
	if r != isa.RZero {
		m.reg[:isa.NumIntRegs][r] = uint64(v)
	}
}

func (m *Machine) setF(r isa.Reg, v float64) {
	m.reg[isa.NumIntRegs:isa.NumRegs][r-isa.NumIntRegs] = math.Float64bits(v)
}

// checkRef is the reference's bounds check of an n-byte access at addr.
func (m *Machine) checkRef(addr uint64, n int) error {
	if addr+uint64(n) > uint64(len(m.mem)) || addr+uint64(n) < addr {
		return fmt.Errorf("funcsim: %s access at %d width %d out of range (mem %d)", m.prog.Name, addr, n, len(m.mem))
	}
	return nil
}

// fallThrough is the sentinel exec returns for non-control instructions.
const fallThrough = -2

// refKind is the kind of memory reference exec reports.
type refKind uint8

const (
	noRef refKind = iota
	loadRef
	storeRef
)

// exec executes one instruction, returning the memory address touched and
// the kind of reference (for loads/stores), the branch direction, and the
// next block (fallThrough when control does not transfer).
func (m *Machine) exec(in *isa.Inst) (addr uint64, ref refKind, taken bool, next int, err error) {
	next = fallThrough
	switch in.Op {
	case isa.OpAdd:
		m.set(in.Rd, m.get(in.Rs1)+m.get(in.Rs2))
	case isa.OpSub:
		m.set(in.Rd, m.get(in.Rs1)-m.get(in.Rs2))
	case isa.OpAnd:
		m.set(in.Rd, m.get(in.Rs1)&m.get(in.Rs2))
	case isa.OpOr:
		m.set(in.Rd, m.get(in.Rs1)|m.get(in.Rs2))
	case isa.OpXor:
		m.set(in.Rd, m.get(in.Rs1)^m.get(in.Rs2))
	case isa.OpShl:
		m.set(in.Rd, m.get(in.Rs1)<<(uint64(m.get(in.Rs2))&63))
	case isa.OpShr:
		m.set(in.Rd, int64(uint64(m.get(in.Rs1))>>(uint64(m.get(in.Rs2))&63)))
	case isa.OpSar:
		m.set(in.Rd, m.get(in.Rs1)>>(uint64(m.get(in.Rs2))&63))
	case isa.OpAddi:
		m.set(in.Rd, m.get(in.Rs1)+in.Imm)
	case isa.OpLui:
		m.set(in.Rd, in.Imm)
	case isa.OpSlt:
		m.set(in.Rd, b2i(m.get(in.Rs1) < m.get(in.Rs2)))
	case isa.OpSltu:
		m.set(in.Rd, b2i(uint64(m.get(in.Rs1)) < uint64(m.get(in.Rs2))))
	case isa.OpMul:
		m.set(in.Rd, m.get(in.Rs1)*m.get(in.Rs2))
	case isa.OpDiv:
		d := m.get(in.Rs2)
		if d == 0 {
			m.set(in.Rd, 0)
		} else {
			m.set(in.Rd, m.get(in.Rs1)/d)
		}
	case isa.OpRem:
		d := m.get(in.Rs2)
		if d == 0 {
			m.set(in.Rd, 0)
		} else {
			m.set(in.Rd, m.get(in.Rs1)%d)
		}

	case isa.OpFAdd:
		m.setF(in.Rd, m.getF(in.Rs1)+m.getF(in.Rs2))
	case isa.OpFSub:
		m.setF(in.Rd, m.getF(in.Rs1)-m.getF(in.Rs2))
	case isa.OpFMul:
		m.setF(in.Rd, m.getF(in.Rs1)*m.getF(in.Rs2))
	case isa.OpFDiv:
		m.setF(in.Rd, m.getF(in.Rs1)/m.getF(in.Rs2))
	case isa.OpFNeg:
		m.setF(in.Rd, -m.getF(in.Rs1))
	case isa.OpFCmp:
		m.set(in.Rd, b2i(m.getF(in.Rs1) < m.getF(in.Rs2)))
	case isa.OpCvtIF:
		m.setF(in.Rd, float64(m.get(in.Rs1)))
	case isa.OpCvtFI:
		switch f := m.getF(in.Rs1); {
		case math.IsNaN(f) || math.IsInf(f, 0):
			m.set(in.Rd, 0)
		case math.Abs(f) >= 0x1p63:
			m.set(in.Rd, math.MinInt64)
		default:
			m.set(in.Rd, int64(f))
		}

	case isa.OpLd, isa.OpLd4, isa.OpLd1, isa.OpFLd:
		addr, ref = uint64(m.get(in.Rs1)+in.Imm), loadRef
		n := in.Op.MemBytes()
		if err = m.checkRef(addr, n); err != nil {
			return
		}
		switch in.Op {
		case isa.OpLd:
			m.set(in.Rd, int64(binary.LittleEndian.Uint64(m.mem[addr:])))
		case isa.OpLd4:
			m.set(in.Rd, int64(int32(binary.LittleEndian.Uint32(m.mem[addr:]))))
		case isa.OpLd1:
			m.set(in.Rd, int64(m.mem[addr]))
		case isa.OpFLd:
			m.setF(in.Rd, math.Float64frombits(binary.LittleEndian.Uint64(m.mem[addr:])))
		}

	case isa.OpSt, isa.OpSt4, isa.OpSt1, isa.OpFSt:
		addr, ref = uint64(m.get(in.Rs1)+in.Imm), storeRef
		n := in.Op.MemBytes()
		if err = m.checkRef(addr, n); err != nil {
			return
		}
		switch in.Op {
		case isa.OpSt:
			binary.LittleEndian.PutUint64(m.mem[addr:], uint64(m.get(in.Rs2)))
		case isa.OpSt4:
			binary.LittleEndian.PutUint32(m.mem[addr:], uint32(m.get(in.Rs2)))
		case isa.OpSt1:
			m.mem[addr] = byte(m.get(in.Rs2))
		case isa.OpFSt:
			binary.LittleEndian.PutUint64(m.mem[addr:], math.Float64bits(m.getF(in.Rs2)))
		}

	case isa.OpBeq:
		taken = m.get(in.Rs1) == m.get(in.Rs2)
	case isa.OpBne:
		taken = m.get(in.Rs1) != m.get(in.Rs2)
	case isa.OpBlt:
		taken = m.get(in.Rs1) < m.get(in.Rs2)
	case isa.OpBge:
		taken = m.get(in.Rs1) >= m.get(in.Rs2)
	case isa.OpBltu:
		taken = uint64(m.get(in.Rs1)) < uint64(m.get(in.Rs2))
	case isa.OpJmp:
		next = in.Target
	case isa.OpHalt:
		// handled by caller
	default:
		err = fmt.Errorf("funcsim: unknown op %d", in.Op)
	}
	if in.Op.IsBranch() && taken {
		next = in.Target
	}
	return
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
