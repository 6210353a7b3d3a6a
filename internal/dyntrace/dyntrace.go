// Package dyntrace records one functional execution of a program as a
// compact, immutable, in-memory dynamic trace, so that every downstream
// consumer — the 28-configuration cache sweep, the timing simulator
// across design changes, the branch-predictor studies — can replay the
// identical instruction stream without re-running the interpreter.
//
// This is the execute-once/replay-many substrate real simulation
// frameworks use to amortize functional simulation: the paper's
// evaluation replays each workload and its clone across dozens of cache
// and pipeline configurations, and all of those runs consume the same
// dynamic stream.
//
// Per-program static-instruction metadata is stored once in a Static
// table. The dynamic stream has one form, in memory and on disk alike:
// the PCDT v4 encoding (see Save), which holds only the run's choices.
// CaptureContext writes it as the program runs, from the column
// batches the functional simulator retires into (funcsim.RunColumns,
// passed through by Stream): a direction bit per conditional branch,
// and per memory reference a hit bit against its static instruction's
// stride predictor (the paper's attribute 4) plus a residual per miss.
// Every control transfer of the ISA is a direct jump or branch to its
// Target, or a fall-through, and prog.Validate rejects bad targets and
// falling off the program, so the static ids, the taken bits and the
// store bits are a function of the program and the branch directions:
// a Walk rebuilds them one basic block at a time (see path). A trace loaded
// from the store holds the same bytes, often mmapped. Every consumer
// reads them through one chunked Walk, so a result cannot depend on
// whether its trace was captured or loaded. No per-event structs are
// allocated and no observer closure runs during replay. The encoded
// footprint is
//
//	1 bit/cond. branch + 1 bit/memref (hit) + ~1–3 B/memref missed
//
// which comes to 0.04–0.30 B/inst on the bundled workloads, versus
// 4 B/inst plus 8 B/memref for the simulator's raw columns and 64 B/inst
// for a slice of funcsim.Event.
package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
)

// Static is the per-static-instruction metadata replayers need, computed
// once at capture time. Fields mirror what the timing simulator's
// functional front end derives per dynamic instruction.
type Static struct {
	// PC is the synthetic text address (drives I-cache and predictor
	// indexing).
	PC uint64
	// Op is the opcode; Class its functional-unit class.
	Op    isa.Op
	Class isa.Class
	// Dest, Src1, Src2 are the architected registers (isa.NoReg when
	// absent) driving dependence tracking.
	Dest isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg
	// Branch, Jump, Mem, Store classify the instruction.
	Branch bool
	Jump   bool
	Mem    bool
	Store  bool
	// Block and Index locate the instruction in the program.
	Block int32
	Index int32
}

// Trace is one captured dynamic instruction stream, held in its encoded
// form (see Save for the layout). Consumers read it through Walk or a
// Cursor. A Trace is immutable after CaptureContext or LoadBytes and
// safe for concurrent walks from many goroutines: each walk owns its
// address predictor.
type Trace struct {
	prog    *prog.Program
	static  []Static
	flow    *flow    // the control-flow table the path is followed on
	branch  []uint64 // direction of each dynamic conditional branch, in path order
	hits    []uint64 // per memory reference: its address was predicted
	resid   []byte   // zigzag varint of address − last per reference that missed
	insts   uint64
	nBranch uint64 // dynamic conditional branches (== bits in branch)
	numMem  uint64 // memory references (== bits in hits)
	halted  bool

	// release unmaps or otherwise frees the backing storage of a
	// zero-copy load (see LoadBytes and Close).
	release func() error
}

// CaptureContext executes p functionally (up to maxInsts dynamic
// instructions; 0 = to completion) and records the dynamic stream. It
// is one Stream over p whose consumer is an Encoder, so the trace never
// holds a raw column. Stream polls ctx and ticks any supervision
// heartbeat once per chunk, so a long capture under a watchdog never
// reads as a wedged task.
func CaptureContext(ctx context.Context, p *prog.Program, maxInsts uint64) (*Trace, error) {
	var e *Encoder
	halted, err := Stream(ctx, p, maxInsts, func(static []Static) func(*Chunk) error {
		e = NewEncoder(p, static)
		return func(c *Chunk) error {
			e.Add(c)
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("dyntrace: capture %s: %w", p.Name, err)
	}
	return e.Finish(halted), nil
}

// Encoder builds a Trace from a Stream's chunks as they arrive. It is
// CaptureContext's chunk consumer, exported so that a caller can feed
// one Stream to a trace and to a second consumer at once (see
// profile.CaptureContext) and run the program only once.
type Encoder struct {
	t      *Trace
	pred   []stride // the address predictor, per static memory instruction
	branch blocks[uint64]
	hits   blocks[uint64]
	resid  blocks[byte]
	bw, hw uint64 // the branch and hit words being filled
}

// NewEncoder starts a trace of p, whose static table is static (the one
// Stream hands its consumer). Its streams grow as the run needs them.
func NewEncoder(p *prog.Program, static []Static) *Encoder {
	t := newTrace(p, static)
	return &Encoder{t: t, pred: make([]stride, len(t.flow.memStore))}
}

// Add encodes the next chunk of the stream. Chunks must arrive in
// order, as Stream yields them. The chunk is read a block run at a
// time: a run names its references' static instructions, and a run
// that ends at a conditional branch adds that branch's direction.
func (e *Encoder) Add(c *Chunk) {
	t, f, pred := e.t, e.t.flow, e.pred
	addrs := c.Addrs
	// The streams live in locals for the chunk: a store to the Encoder's
	// heap fields would cost a write barrier whenever the GC runs.
	branch, hits, resid := e.branch.cur, e.hits.cur, e.resid.cur
	nBranch, numMem, bw, hw := t.nBranch, t.numMem, e.bw, e.hw
	for k := 0; k < len(c.SIDs); {
		s := c.SIDs[k]
		b := &f.blocks[f.block[s]]
		end := min(b.end, s+uint32(len(c.SIDs)-k))
		k += int(end - s)
		lo, hi := f.memBefore[s], f.memBefore[end]
		for i, a := range addrs[:hi-lo] {
			p := &pred[lo+uint32(i)]
			if d := a - p.last; d != p.stride {
				p.stride = d
				resid = binary.AppendVarint(e.resid.room(resid, binary.MaxVarintLen64), int64(d))
			} else {
				hw |= 1 << (numMem & 63)
			}
			p.last = a
			if numMem++; numMem&63 == 0 {
				hits, hw = append(e.hits.room(hits, 1), hw), 0
			}
		}
		addrs = addrs[hi-lo:]
		if end == b.end && b.kind == termBranch {
			bw |= c.Taken[(k-1)>>6] >> ((k - 1) & 63) & 1 << (nBranch & 63)
			if nBranch++; nBranch&63 == 0 {
				branch, bw = append(e.branch.room(branch, 1), bw), 0
			}
		}
	}
	e.branch.cur, e.hits.cur, e.resid.cur = branch, hits, resid
	t.nBranch, t.numMem, e.bw, e.hw = nBranch, numMem, bw, hw
	t.insts += uint64(len(c.SIDs))
}

// Finish returns the trace; halted is what Stream reported. The Encoder
// must not be used afterwards.
func (e *Encoder) Finish(halted bool) *Trace {
	t := e.t
	e.t = nil
	t.halted = halted
	if t.nBranch&63 != 0 {
		e.branch.cur = append(e.branch.room(e.branch.cur, 1), e.bw)
	}
	if t.numMem&63 != 0 {
		e.hits.cur = append(e.hits.room(e.hits.cur, 1), e.hw)
	}
	t.branch, t.hits, t.resid = e.branch.join(), e.hits.join(), e.resid.join()
	return t
}

// blocks is one of an Encoder's streams. It grows in 16 KiB blocks, so
// growing never copies what is already encoded, and join copies it
// once, into a slice of exactly its length: a captured trace lives as
// long as its pair and keeps no spare capacity. The current block is
// cur; the Encoder works on it in a local and stores it back.
type blocks[T any] struct {
	full [][]T
	cur  []T
}

// room returns cur, the current block, or a new one when cur has no
// room for k more elements.
func (b *blocks[T]) room(cur []T, k int) []T {
	if cap(cur)-len(cur) >= k {
		return cur
	}
	b.full = append(b.full, cur)
	var zero T
	return make([]T, 0, max(k, 16<<10/int(unsafe.Sizeof(zero))))
}

func (b *blocks[T]) join() []T { return slices.Concat(append(b.full, b.cur)...) }

// Stream executes p functionally for up to n dynamic instructions (0 =
// to completion) and hands its stream to fn one Chunk at a time, without
// building a Trace. It is the one place dyntrace runs the functional
// simulator: CaptureContext encodes the chunks (Encoder), a profile
// accumulates them, profile.CaptureContext does both in one run, and
// statsim.Meter.Run feeds them to caches and branch predictors. Before
// the run, Stream calls open once with
// p's static table, which the chunks' static ids index, and open returns
// the chunk consumer fn. Each chunk is one of the simulator's column
// batches (funcsim.RunColumns, up to funcsim.EventChunk instructions),
// passed through as it was retired: Stream only sets Base. It polls ctx
// once per chunk, returning the context's cause once it is done, and
// ticks any supervision heartbeat ctx carries. The chunk and its slices
// are valid only during the call to fn; an error from fn aborts the run
// with that error. halted reports that p reached halt within the budget.
func Stream(ctx context.Context, p *prog.Program, n uint64, open func(static []Static) (fn func(*Chunk) error)) (halted bool, err error) {
	m, err := funcsim.New(p)
	if err != nil {
		return false, err
	}
	fn := open(buildStatic(p))
	var c Chunk
	var next uint64 // dynamic index of the next chunk's first instruction
	res, err := m.RunColumns(funcsim.Limits{MaxInsts: n}, func(cols *funcsim.Columns) error {
		if err := supervise.Cause(ctx); err != nil {
			return err
		}
		supervise.Beat(ctx)
		// Every batch but the last holds EventChunk (a multiple of 64)
		// instructions, so Base is 64-aligned.
		c = Chunk{Base: next, SIDs: cols.SIDs, Taken: cols.Taken, Addrs: cols.Addrs, Stores: cols.Stores}
		next += uint64(len(cols.SIDs))
		return fn(&c)
	})
	return res.Halted, err
}

// FromColumns assembles a Trace of insts instructions from the branch
// directions and the addresses, without functional execution or
// validation, for tests that need malformed traces: it keeps what the
// path passes as far as it can be followed, so a short column or an
// early halt surfaces as an error from Walk, not a panic.
func FromColumns(p *prog.Program, branches, addrs []uint64, insts uint64, halted bool) *Trace {
	e := NewEncoder(p, buildStatic(p))
	t := e.t
	t.branch, t.nBranch = branches, 64*uint64(len(branches))
	dirs, refs := t.start(), t.start()
	dirs.follow(nil, nil, insts, math.MaxUint64, nil, nil)
	ids, taken := make([]uint32, insts), make([]uint64, (insts+63)/64)
	refs.follow(ids, taken, insts, uint64(len(addrs)), nil, nil)
	e.Add(&Chunk{SIDs: ids[:refs.i], Taken: taken, Addrs: addrs})
	e.Finish(halted)
	t.branch, t.nBranch, t.insts = branches[:(dirs.bn+63)/64], dirs.bn, insts
	return t
}

// newTrace returns an empty trace of p, whose static table is static.
func newTrace(p *prog.Program, static []Static) *Trace {
	return &Trace{prog: p, static: static, flow: buildFlow(p, static)}
}

// buildStatic flattens the program's blocks into the static table,
// indexed by the block-major static id of prog.Program.BlockStarts.
func buildStatic(p *prog.Program) []Static {
	static := make([]Static, 0, p.NumStaticInsts())
	var srcBuf [2]isa.Reg
	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			s := Static{
				PC:     p.InstAddr(bi, ii),
				Op:     in.Op,
				Class:  in.Op.Class(),
				Dest:   in.Dest(),
				Src1:   isa.NoReg,
				Src2:   isa.NoReg,
				Branch: in.Op.IsBranch(),
				Jump:   in.Op == isa.OpJmp,
				Mem:    in.Op.IsMem(),
				Store:  in.Op.IsStore(),
				Block:  int32(bi),
				Index:  int32(ii),
			}
			srcs := in.Sources(srcBuf[:0])
			if len(srcs) > 0 {
				s.Src1 = srcs[0]
			}
			if len(srcs) > 1 {
				s.Src2 = srcs[1]
			}
			static = append(static, s)
		}
	}
	return static
}

// Terminator kinds of a flow block: how the path leaves the block.
const (
	termFall   = iota // fall through to the next block
	termJmp           // go to Target
	termBranch        // go to Target if the branch is taken, else fall through
	termHalt          // the path ends
)

// flowBlock is one basic block as a path follows it.
type flowBlock struct {
	start, end uint32 // the block's block-major ids are [start, end)
	target     int    // Target of a jmp or branch terminator
	kind       uint8  // termFall, termJmp, termBranch or termHalt
}

// flow is the control-flow table a path is followed on. A run is a path
// of basic blocks from the entry whose only dynamic choice is each
// conditional branch's direction, so the path, and with it every id,
// taken bit and store bit, follows from the program and the branch
// directions. It is built once per trace and shared by its walks.
type flow struct {
	blocks []flowBlock
	entry  int
	// ids[i] == i: a block's run of ids is copied out of it.
	ids []uint32
	// block[i] is the block id i is in.
	block []uint32
	// memBefore[i] counts the memory instructions among ids below i, so
	// a run [a, b) makes the references of memory instructions
	// memBefore[a] to memBefore[b]-1, numbered in id order.
	memBefore []uint32
	// memStore[j] is 1 when memory instruction j is a store.
	memStore []uint8
}

// stride is one static memory instruction's address predictor: it
// predicts last + stride.
type stride struct{ last, stride uint64 }

// buildFlow derives p's control-flow table; static is p's static table.
// It accepts any program: a target outside the program, or falling off
// its end, is an error when a path reaches it, not here.
func buildFlow(p *prog.Program, static []Static) *flow {
	starts := p.BlockStarts()
	f := &flow{
		blocks:    make([]flowBlock, len(p.Blocks)),
		entry:     p.Entry,
		ids:       make([]uint32, len(static)),
		block:     make([]uint32, len(static)),
		memBefore: make([]uint32, len(static)+1),
	}
	for bi := range p.Blocks {
		fb := flowBlock{start: starts[bi], end: starts[bi+1]}
		if in := p.Blocks[bi].Terminator(); in != nil {
			switch {
			case in.Op == isa.OpHalt:
				fb.kind = termHalt
			case in.Op == isa.OpJmp:
				fb.kind, fb.target = termJmp, in.Target
			case in.Op.IsBranch():
				fb.kind, fb.target = termBranch, in.Target
			}
		}
		f.blocks[bi] = fb
	}
	for i := range static {
		f.ids[i], f.block[i] = uint32(i), uint32(static[i].Block)
		f.memBefore[i+1] = f.memBefore[i]
		if static[i].Mem {
			f.memBefore[i+1]++
			if f.memStore = append(f.memStore, 0); static[i].Store {
				f.memStore[len(f.memStore)-1] = 1
			}
		}
	}
	return f
}

// appendBits appends the first k bits of src to the bitset dst, which
// holds n bits, a word at a time. Bits of src past k are ignored.
func appendBits(dst []uint64, n uint64, src []uint64, k uint64) []uint64 {
	sh := n & 63
	for i, w := range src[:(k+63)/64] {
		if r := k - uint64(i)*64; r < 64 {
			w &= 1<<r - 1
		}
		if sh == 0 {
			dst = append(dst, w)
			continue
		}
		dst[len(dst)-1] |= w << sh
		dst = append(dst, w>>(64-sh))
	}
	// The last word appended may hold no bit at all.
	return dst[:(n+k+63)/64]
}

// Program returns the traced program.
func (t *Trace) Program() *prog.Program { return t.prog }

// Insts is the number of retired dynamic instructions recorded.
func (t *Trace) Insts() uint64 { return t.insts }

// Halted reports whether the program reached halt within the capture
// budget.
func (t *Trace) Halted() bool { return t.halted }

// Covers reports whether t holds the first n instructions of its
// program's run (n = 0: the complete run): it halted, or n > 0 and it
// recorded at least n.
func (t *Trace) Covers(n uint64) bool {
	return t.halted || (n > 0 && t.insts >= n)
}

// NumMem is the number of memory references recorded.
func (t *Trace) NumMem() uint64 { return t.numMem }

// Statics returns the static-instruction table (read-only).
func (t *Trace) Statics() []Static { return t.static }

// Close releases the backing storage of a zero-copy load (the mmap
// behind LoadBytes). The Trace must not be used afterwards. Closing a
// trace that owns no mapping — captured, built, or already closed — is
// a no-op.
func (t *Trace) Close() error {
	rel := t.release
	t.release = nil
	if rel == nil {
		return nil
	}
	return rel()
}
