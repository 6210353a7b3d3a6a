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
// the PCDT v3 encoding (see Save). CaptureContext writes it as the
// program runs, from the column batches the functional simulator
// retires into (funcsim.RunColumns, passed through by Stream): a taken
// bitset indexed by dynamic position and, per memory reference (not per
// instruction), a zigzag-delta varint address and a store bit. The
// static ids are not stored. Every control transfer of the ISA is a
// direct jump or branch to its Target, or a fall-through, and
// prog.Validate rejects bad targets and falling off the program, so
// the ids are a function of the program and the taken bits: a Cursor
// rebuilds them one basic block at a time (see flow). A trace loaded
// from the store holds the same bytes, often mmapped. Every consumer
// reads them through one chunked Walk, so a result cannot depend on
// whether its trace was captured or loaded. No per-event structs are
// allocated and no observer closure runs during replay. The encoded
// footprint is
//
//	1 bit/inst (taken) + ~1–3 B/memref (addr) + 1 bit/memref (store)
//
// which comes to 0.17–0.89 B/inst on the bundled workloads, versus
// 4 B/inst plus 8 B/memref for the simulator's raw columns and 64 B/inst
// for a slice of funcsim.Event.
package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

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
// safe for concurrent walks from many goroutines.
type Trace struct {
	prog     *prog.Program
	static   []Static
	flow     *flow    // the control-flow table the ids are rebuilt from
	taken    []uint64 // bitset over dynamic instructions
	memStore []uint64 // bitset over memory references
	memEnc   []byte   // zigzag-delta varint address per memory reference
	insts    uint64
	numMem   uint64 // memory references (== addresses in memEnc)
	halted   bool

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
	t    *Trace
	prev uint64 // last address: the address stream is delta-coded
}

// NewEncoder starts a trace of p, whose static table is static (the one
// Stream hands its consumer). Its streams grow as the run needs them.
func NewEncoder(p *prog.Program, static []Static) *Encoder {
	return &Encoder{t: newTrace(p, static)}
}

// Add encodes the next chunk of the stream. Chunks must arrive in
// order, as Stream yields them.
func (e *Encoder) Add(c *Chunk) {
	t := e.t
	// Base is 64-aligned, so the chunk's taken words are the trace's.
	t.taken = append(grow(t.taken, len(c.Taken)), c.Taken...)
	t.insts += uint64(len(c.SIDs))
	// Encode into locals and store them back once per chunk: the Trace's
	// fields live on the heap, its locals in registers. An address takes
	// at most MaxVarintLen64 bytes, so the chunk's fit without regrowing.
	memEnc, last := grow(t.memEnc, len(c.Addrs)*binary.MaxVarintLen64), e.prev
	for _, a := range c.Addrs {
		memEnc = appendAddr(memEnc, a, last)
		last = a
	}
	t.memEnc, e.prev = memEnc, last
	n := uint64(len(c.Addrs))
	t.memStore = appendBits(grow(t.memStore, len(c.Stores)), t.numMem, c.Stores, n)
	t.numMem += n
}

// Finish returns the trace; halted is what Stream reported. The Encoder
// must not be used afterwards.
func (e *Encoder) Finish(halted bool) *Trace {
	t := e.t
	e.t = nil
	t.halted = halted
	// A captured trace lives as long as its pair, so its streams keep no
	// spare capacity from growing.
	t.taken, t.memEnc, t.memStore = fit(t.taken), fit(t.memEnc), fit(t.memStore)
	return t
}

// grow returns s with room for n more elements. It at least doubles the
// capacity when it must grow: a capture's streams grow for as long as
// the run lasts, and doubling allocates about twice a stream's final
// size in all, where append's 1.25× steps for large slices allocate
// five times it.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// fit returns s, or a copy of it with no spare capacity when more than
// an eighth of its backing array is unused.
func fit[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/8 {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

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

// FromColumns assembles a Trace from raw dynamic columns, encoding them,
// without functional execution and without validation. It exists for
// tests that need malformed traces: a column that disagrees with the
// header or the program surfaces as an error from Walk, not a panic.
func FromColumns(p *prog.Program, taken, memAddr, memStore []uint64, insts uint64, halted bool) *Trace {
	t := newTrace(p, buildStatic(p))
	t.taken, t.memStore = taken, memStore
	t.insts, t.numMem, t.halted = insts, uint64(len(memAddr)), halted
	var prev uint64
	for _, a := range memAddr {
		t.memEnc = appendAddr(t.memEnc, a, prev)
		prev = a
	}
	return t
}

// newTrace returns an empty trace of p, whose static table is static.
func newTrace(p *prog.Program, static []Static) *Trace {
	return &Trace{prog: p, static: static, flow: buildFlow(p, static)}
}

// appendAddr appends the zigzag varint of a − prev. The delta wraps, so
// ascending, descending and wildly alternating addresses all encode
// without overflow and decode exactly.
func appendAddr(dst []byte, a, prev uint64) []byte {
	return binary.AppendVarint(dst, int64(a-prev))
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
	termBranch        // go to Target if the branch's taken bit is set, else fall through
	termHalt          // the path ends
)

// flowBlock is one basic block as a Cursor follows it.
type flowBlock struct {
	start, end uint32 // the block's block-major ids are [start, end)
	target     int    // Target of a jmp or branch terminator
	kind       uint8  // termFall, termJmp, termBranch or termHalt
}

// flow is the control-flow table a Cursor rebuilds static ids from. A
// run is a path of basic blocks from the entry whose only dynamic choice
// is each conditional branch's direction, so the path, and with it every
// id, follows from the program and the taken bitset. It is built once
// per trace and shared by its walks.
type flow struct {
	blocks []flowBlock
	entry  int
	// ids[i] == i: a block's run of ids is copied out of it.
	ids []uint32
	// memBefore[i] counts the memory instructions among ids below i, so
	// a run [a, b) makes memBefore[b]-memBefore[a] references.
	memBefore []uint32
}

// buildFlow derives p's control-flow table; static is p's static table.
// It accepts any program: a target outside the program, or falling off
// its end, is an error when a Cursor reaches it, not here.
func buildFlow(p *prog.Program, static []Static) *flow {
	starts := p.BlockStarts()
	f := &flow{
		blocks:    make([]flowBlock, len(p.Blocks)),
		entry:     p.Entry,
		ids:       make([]uint32, len(static)),
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
		f.ids[i] = uint32(i)
		f.memBefore[i+1] = f.memBefore[i]
		if static[i].Mem {
			f.memBefore[i+1]++
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
