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
	// reg is the register file, indexed by isa.Reg: the integer
	// registers at 0..31 and the bits of the floating-point registers at
	// 32..63. It has an entry for every Reg value, so no operand read
	// needs a bounds check; reg[RZero] is reset after every instruction.
	reg [256]uint64
	mem []byte
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
func (m *Machine) IntReg(i int) int64 { return int64(m.reg[:isa.NumIntRegs][i]) }

// FPReg returns the value of floating-point register i.
func (m *Machine) FPReg(i int) float64 {
	return math.Float64frombits(m.reg[isa.NumIntRegs:isa.NumRegs][i])
}

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
//
// Each block runs as one or more segments: a segment ends at the block's
// end, at the instruction limit or where the batch fills, so the inner
// loop only executes instructions and records memory references, and the
// static ids, the taken bit and the instruction count are written once
// per segment.
func (m *Machine) RunColumns(lim Limits, obs ColumnObserver) (Result, error) {
	var res Result
	p := m.prog
	starts := p.BlockStarts()
	limit := lim.MaxInsts
	if limit == 0 {
		limit = math.MaxUint64
	}
	b := batch{
		sids:   make([]uint32, 0, EventChunk),
		taken:  new([EventChunk / 64]uint64),
		addrs:  make([]uint64, 0, EventChunk),
		stores: new([EventChunk / 64]uint64),
		out:    new(Columns),
	}
	r := &m.reg
	mem := m.mem
	memLen := uint64(len(mem))
	bi := p.Entry
	for {
		insts := p.Blocks[bi].Insts
		sid := starts[bi]
		next := bi + 1 // fall-through default
		taken, halted := false, false
		for ii := 0; ii < len(insts); {
			if res.Insts >= limit {
				return res, b.deliver(obs)
			}
			n := min(uint64(len(insts)-ii), limit-res.Insts, uint64(EventChunk-len(b.sids)))
			seg := insts[ii : ii+int(n)]
			addrs := b.addrs
			var err error
			k := 0
		exec:
			for ; k < len(seg); k++ {
				in := &seg[k]
				switch in.Op {
				case isa.OpAdd:
					r[in.Rd] = r[in.Rs1] + r[in.Rs2]
				case isa.OpSub:
					r[in.Rd] = r[in.Rs1] - r[in.Rs2]
				case isa.OpAnd:
					r[in.Rd] = r[in.Rs1] & r[in.Rs2]
				case isa.OpOr:
					r[in.Rd] = r[in.Rs1] | r[in.Rs2]
				case isa.OpXor:
					r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
				case isa.OpShl:
					r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
				case isa.OpShr:
					r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
				case isa.OpSar:
					r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
				case isa.OpAddi:
					r[in.Rd] = r[in.Rs1] + uint64(in.Imm)
				case isa.OpLui:
					r[in.Rd] = uint64(in.Imm)
				case isa.OpSlt:
					r[in.Rd] = b2u(int64(r[in.Rs1]) < int64(r[in.Rs2]))
				case isa.OpSltu:
					r[in.Rd] = b2u(r[in.Rs1] < r[in.Rs2])
				case isa.OpMul:
					r[in.Rd] = r[in.Rs1] * r[in.Rs2]
				case isa.OpDiv:
					if d := int64(r[in.Rs2]); d != 0 {
						r[in.Rd] = uint64(int64(r[in.Rs1]) / d)
					} else {
						r[in.Rd] = 0
					}
				case isa.OpRem:
					if d := int64(r[in.Rs2]); d != 0 {
						r[in.Rd] = uint64(int64(r[in.Rs1]) % d)
					} else {
						r[in.Rd] = 0
					}

				case isa.OpFAdd:
					r[in.Rd] = math.Float64bits(f64(r[in.Rs1]) + f64(r[in.Rs2]))
				case isa.OpFSub:
					r[in.Rd] = math.Float64bits(f64(r[in.Rs1]) - f64(r[in.Rs2]))
				case isa.OpFMul:
					r[in.Rd] = math.Float64bits(f64(r[in.Rs1]) * f64(r[in.Rs2]))
				case isa.OpFDiv:
					r[in.Rd] = math.Float64bits(f64(r[in.Rs1]) / f64(r[in.Rs2]))
				case isa.OpFNeg:
					r[in.Rd] = math.Float64bits(-f64(r[in.Rs1]))
				case isa.OpFCmp:
					r[in.Rd] = b2u(f64(r[in.Rs1]) < f64(r[in.Rs2]))
				case isa.OpCvtIF:
					r[in.Rd] = math.Float64bits(float64(int64(r[in.Rs1])))
				case isa.OpCvtFI:
					switch f := f64(r[in.Rs1]); {
					case f >= -0x1p63 && f < 0x1p63:
						r[in.Rd] = uint64(int64(f))
					case math.IsNaN(f) || math.IsInf(f, 0):
						r[in.Rd] = 0
					default: // finite, |f| ≥ 2^63: Go leaves int64(f) to the target
						r[in.Rd] = 1 << 63
					}

				case isa.OpLd, isa.OpFLd:
					a := r[in.Rs1] + uint64(in.Imm)
					if a+8 > memLen || a+8 < a {
						err = m.checkAddr(a, 8)
						break exec
					}
					r[in.Rd] = binary.LittleEndian.Uint64(mem[a:])
					addrs = append(addrs, a)
				case isa.OpLd4:
					a := r[in.Rs1] + uint64(in.Imm)
					if a+4 > memLen || a+4 < a {
						err = m.checkAddr(a, 4)
						break exec
					}
					r[in.Rd] = uint64(int64(int32(binary.LittleEndian.Uint32(mem[a:]))))
					addrs = append(addrs, a)
				case isa.OpLd1:
					a := r[in.Rs1] + uint64(in.Imm)
					if a >= memLen {
						err = m.checkAddr(a, 1)
						break exec
					}
					r[in.Rd] = uint64(mem[a])
					addrs = append(addrs, a)
				case isa.OpSt, isa.OpFSt:
					a := r[in.Rs1] + uint64(in.Imm)
					if a+8 > memLen || a+8 < a {
						err = m.checkAddr(a, 8)
						break exec
					}
					binary.LittleEndian.PutUint64(mem[a:], r[in.Rs2])
					setBit(b.stores, len(addrs))
					addrs = append(addrs, a)
				case isa.OpSt4:
					a := r[in.Rs1] + uint64(in.Imm)
					if a+4 > memLen || a+4 < a {
						err = m.checkAddr(a, 4)
						break exec
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(r[in.Rs2]))
					setBit(b.stores, len(addrs))
					addrs = append(addrs, a)
				case isa.OpSt1:
					a := r[in.Rs1] + uint64(in.Imm)
					if a >= memLen {
						err = m.checkAddr(a, 1)
						break exec
					}
					mem[a] = byte(r[in.Rs2])
					setBit(b.stores, len(addrs))
					addrs = append(addrs, a)

				// Control instructions end their block, so they end the
				// segment too.
				case isa.OpBeq:
					taken = r[in.Rs1] == r[in.Rs2]
				case isa.OpBne:
					taken = r[in.Rs1] != r[in.Rs2]
				case isa.OpBlt:
					taken = int64(r[in.Rs1]) < int64(r[in.Rs2])
				case isa.OpBge:
					taken = int64(r[in.Rs1]) >= int64(r[in.Rs2])
				case isa.OpBltu:
					taken = r[in.Rs1] < r[in.Rs2]
				case isa.OpJmp:
					next = in.Target
				case isa.OpHalt:
					halted = true
				default:
					err = fmt.Errorf("funcsim: unknown op %d", in.Op)
					break exec
				}
				r[isa.RZero] = 0
			}
			b.addrs = addrs
			base := sid + uint32(ii)
			for j := range uint32(k) {
				b.sids = append(b.sids, base+j)
			}
			res.Insts += uint64(k)
			if err != nil {
				if ferr := b.deliver(obs); ferr != nil {
					return res, ferr
				}
				return res, err
			}
			ii += k
			if taken {
				next = seg[k-1].Target
				setBit(b.taken, len(b.sids)-1)
			}
			if len(b.sids) == EventChunk {
				if err := b.deliver(obs); err != nil {
					return res, err
				}
			}
			if halted {
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
	taken  *[EventChunk / 64]uint64 // zeroed after each delivery
	addrs  []uint64
	stores *[EventChunk / 64]uint64 // zeroed after each delivery
	out    *Columns                 // the view handed to the observer
}

// deliver hands the accumulated columns to obs, if there are any and obs
// is not nil, and empties the batch.
func (b *batch) deliver(obs ColumnObserver) error {
	if len(b.sids) == 0 {
		return nil
	}
	var err error
	if obs != nil {
		*b.out = Columns{
			SIDs:   b.sids,
			Taken:  b.taken[:(len(b.sids)+63)/64],
			Addrs:  b.addrs,
			Stores: b.stores[:(len(b.addrs)+63)/64],
		}
		err = obs(b.out)
	}
	b.sids, b.addrs = b.sids[:0], b.addrs[:0]
	clear(b.taken[:])
	clear(b.stores[:])
	return err
}

// setBit sets bit i of a batch bitset; i is below EventChunk.
func setBit(words *[EventChunk / 64]uint64, i int) {
	words[i>>6&(EventChunk/64-1)] |= 1 << (i & 63)
}

// f64 reads a floating-point register's bits as its value.
func f64(bits uint64) float64 { return math.Float64frombits(bits) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
