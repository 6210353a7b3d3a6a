// Package funcsim executes programs functionally — the role SimpleScalar's
// sim-safe plays in the paper. It maintains architected register and memory
// state, follows control flow, and reports the retired instruction stream
// to an optional observer. The profiler (internal/profile) and the trace
// capture (internal/dyntrace) are both built on that stream.
//
// The interpreter retires straight into column form (RunColumns): per
// instruction a block-major static id (prog.Program.BlockStarts) and a
// taken bit, and per memory reference an address and a store bit — the
// shape of a dyntrace.Chunk. RunBatch expands those columns into
// per-instruction Events for callers that want one struct per
// instruction.
package funcsim

import (
	"encoding/binary"
	"fmt"
	"math"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

// Event describes one retired dynamic instruction.
type Event struct {
	// Seq is the dynamic sequence number, starting at 0.
	Seq uint64
	// Block and Index locate the static instruction.
	Block, Index int
	// PC is the synthetic text address of the instruction.
	PC uint64
	// Inst is the instruction executed.
	Inst *isa.Inst
	// Addr is the effective address for loads/stores (0 otherwise).
	Addr uint64
	// Taken reports the branch direction for conditional branches.
	Taken bool
	// NextBlock is the block executed next (-1 after halt).
	NextBlock int
}

// BatchObserver receives retired instructions in chunks of up to
// EventChunk events. The slice is reused between calls; implementations
// must not retain it. Returning a non-nil error aborts simulation with
// that error. Because the machine executes a whole chunk before the
// observer sees it, architected state may be ahead of the last delivered
// event when a BatchObserver aborts.
type BatchObserver func(events []Event) error

// Columns is one batch of retired instructions in column form.
type Columns struct {
	// SIDs holds one block-major static id (prog.Program.BlockStarts)
	// per retired instruction, in order.
	SIDs []uint32
	// Taken is the taken bitset over SIDs: bit k is set when SIDs[k] is
	// a taken conditional branch.
	Taken []uint64
	// Addrs holds the effective address of each memory reference, in
	// order.
	Addrs []uint64
	// Stores is the store bitset over Addrs: bit j is set when Addrs[j]
	// is a store.
	Stores []uint64
}

// ColumnObserver receives retired instructions in batches of up to
// EventChunk. The batch and its slices are reused between calls;
// implementations must not retain them. Returning a non-nil error aborts
// simulation with that error; architected state is then at the end of
// the delivered batch.
type ColumnObserver func(c *Columns) error

// EventChunk is the number of retired instructions per observer batch,
// in column form and as Events alike. A column batch holds at most
// 16 KiB of ids, 32 KiB of addresses and 1 KiB of bitsets; the same
// batch expanded to 64-byte Events is 256 KiB.
const EventChunk = 4096

// Limits bounds a simulation run.
type Limits struct {
	// MaxInsts aborts the run after this many dynamic instructions
	// (0 = no limit).
	MaxInsts uint64
}

// Result summarizes a completed run.
type Result struct {
	// Insts is the number of retired dynamic instructions.
	Insts uint64
	// Halted reports whether the program reached a halt instruction (as
	// opposed to hitting Limits.MaxInsts).
	Halted bool
}

// Machine is the architected state of one program run.
type Machine struct {
	prog *prog.Program
	ireg [isa.NumIntRegs]int64
	freg [isa.NumFPRegs]float64
	mem  []byte
}

// New creates a Machine with the program's initial memory image loaded.
func New(p *prog.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p, mem: make([]byte, p.MemSize)}
	for _, s := range p.Segments {
		copy(m.mem[s.Base:], s.Data)
	}
	return m, nil
}

// IntReg returns the value of integer register i.
func (m *Machine) IntReg(i int) int64 { return m.ireg[i] }

// FPReg returns the value of floating-point register i.
func (m *Machine) FPReg(i int) float64 { return m.freg[i] }

// ReadMem copies n bytes at addr. A negative n, or a range that leaves
// memory or wraps past 2^64, is an error.
func (m *Machine) ReadMem(addr uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("funcsim: read of negative length %d at %d", n, addr)
	}
	if err := m.checkAddr(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.mem[addr:])
	return out, nil
}

func (m *Machine) get(r isa.Reg) int64 {
	if r == isa.RZero {
		return 0
	}
	return m.ireg[r]
}

func (m *Machine) getF(r isa.Reg) float64 {
	return m.freg[r-isa.NumIntRegs]
}

func (m *Machine) set(r isa.Reg, v int64) {
	if r != isa.RZero {
		m.ireg[r] = v
	}
}

func (m *Machine) setF(r isa.Reg, v float64) {
	m.freg[r-isa.NumIntRegs] = v
}

func (m *Machine) checkAddr(addr uint64, n int) error {
	if addr+uint64(n) > uint64(len(m.mem)) || addr+uint64(n) < addr {
		return fmt.Errorf("funcsim: %s access at %d width %d out of range (mem %d)", m.prog.Name, addr, n, len(m.mem))
	}
	return nil
}

// RunBatch executes the program like RunColumns but delivers each batch
// to obs as Events, expanded from the columns through a per-static-id
// table. obs may be nil (pure execution). On an execution error the batch
// accumulated so far is delivered before the error is returned, so obs
// still sees every retired instruction.
func (m *Machine) RunBatch(lim Limits, obs BatchObserver) (Result, error) {
	if obs == nil {
		return m.RunColumns(lim, nil)
	}
	tab := eventTable(m.prog)
	events := make([]Event, 0, EventChunk)
	var seq uint64
	return m.RunColumns(lim, func(c *Columns) error {
		events = events[:0]
		j := 0 // next memory reference
		for k, sid := range c.SIDs {
			ev := tab[sid]
			ev.Seq = seq + uint64(k)
			if c.Taken[k>>6]>>(k&63)&1 != 0 {
				ev.Taken = true
				ev.NextBlock = ev.Inst.Target
			}
			if ev.Inst.Op.IsMem() {
				ev.Addr = c.Addrs[j]
				j++
			}
			events = append(events, ev)
		}
		seq += uint64(len(c.SIDs))
		return obs(events)
	})
}

// eventTable holds, per static id, the Event fields that follow from the
// instruction alone. NextBlock is the successor when no branch is taken:
// -1 after halt, the target after a jump, and the next block otherwise.
func eventTable(p *prog.Program) []Event {
	tab := make([]Event, 0, p.NumStaticInsts())
	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			next := bi + 1
			switch in.Op {
			case isa.OpHalt:
				next = -1
			case isa.OpJmp:
				next = in.Target
			}
			tab = append(tab, Event{Block: bi, Index: ii, PC: p.InstAddr(bi, ii), Inst: in, NextBlock: next})
		}
	}
	return tab
}

// RunColumns is the interpreter: it executes the program from its entry
// block until halt, the limit, or an error, writing each retired
// instruction into column form and handing obs a batch every EventChunk
// instructions and at the end of the run. obs may be nil (pure
// execution). On an execution error the batch accumulated so far is
// delivered before the error is returned, so obs sees every retired
// instruction; Result.Insts then counts the instructions retired before
// the failing one.
func (m *Machine) RunColumns(lim Limits, obs ColumnObserver) (Result, error) {
	var res Result
	p := m.prog
	starts := p.BlockStarts()
	limit := lim.MaxInsts
	if limit == 0 {
		limit = math.MaxUint64
	}
	var b batch
	if obs != nil {
		b = batch{
			sids:   make([]uint32, 0, EventChunk),
			taken:  make([]uint64, EventChunk/64),
			addrs:  make([]uint64, 0, EventChunk),
			stores: make([]uint64, EventChunk/64),
			out:    new(Columns),
		}
	}
	bi := p.Entry
	for {
		blk := &p.Blocks[bi]
		sid := starts[bi]
		next := bi + 1 // fall-through default
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			if res.Insts >= limit {
				return res, b.deliver(obs)
			}
			addr, ref, taken, nb, err := m.exec(in)
			if err != nil {
				if ferr := b.deliver(obs); ferr != nil {
					return res, ferr
				}
				return res, err
			}
			if nb != fallThrough {
				next = nb
			}
			res.Insts++
			if obs != nil {
				k := len(b.sids)
				b.sids = append(b.sids, sid+uint32(ii))
				if taken {
					b.taken[k>>6] |= 1 << (k & 63)
				}
				if ref != noRef {
					j := len(b.addrs)
					if ref == storeRef {
						b.stores[j>>6] |= 1 << (j & 63)
					}
					b.addrs = append(b.addrs, addr)
				}
				if len(b.sids) == EventChunk {
					if err := b.deliver(obs); err != nil {
						return res, err
					}
				}
			}
			if in.Op == isa.OpHalt {
				res.Halted = true
				return res, b.deliver(obs)
			}
		}
		bi = next
		if bi >= len(p.Blocks) {
			if err := b.deliver(obs); err != nil {
				return res, err
			}
			return res, fmt.Errorf("funcsim: %s fell off program at block %d", p.Name, bi)
		}
	}
}

// batch accumulates RunColumns' columns between deliveries.
type batch struct {
	sids   []uint32
	taken  []uint64 // EventChunk/64 words, zeroed after each delivery
	addrs  []uint64
	stores []uint64 // EventChunk/64 words, zeroed after each delivery
	out    *Columns // the view handed to the observer
}

// deliver hands the accumulated columns to obs, if there are any, and
// empties the batch.
func (b *batch) deliver(obs ColumnObserver) error {
	if len(b.sids) == 0 {
		return nil
	}
	*b.out = Columns{
		SIDs:   b.sids,
		Taken:  b.taken[:(len(b.sids)+63)/64],
		Addrs:  b.addrs,
		Stores: b.stores[:(len(b.addrs)+63)/64],
	}
	err := obs(b.out)
	b.sids, b.addrs = b.sids[:0], b.addrs[:0]
	clear(b.taken)
	clear(b.stores)
	return err
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
		f := m.getF(in.Rs1)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			m.set(in.Rd, 0)
		} else {
			m.set(in.Rd, int64(f))
		}

	case isa.OpLd, isa.OpLd4, isa.OpLd1, isa.OpFLd:
		addr, ref = uint64(m.get(in.Rs1)+in.Imm), loadRef
		n := in.Op.MemBytes()
		if err = m.checkAddr(addr, n); err != nil {
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
		if err = m.checkAddr(addr, n); err != nil {
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
