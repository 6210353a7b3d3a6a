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
// the PCDT v2 encoding (see Save). CaptureContext writes it as the
// program runs, from the column batches the functional simulator
// retires into (funcsim.RunColumns, passed through by Stream): a
// uvarint static-instruction id per retired instruction, a taken bitset
// indexed by dynamic position, and, per memory reference (not per
// instruction), a zigzag-delta varint address and a store bit. A trace
// loaded from the store holds the same bytes, often mmapped. Every
// consumer reads them through one chunked Walk, so a result cannot
// depend on whether its trace was captured or loaded. No per-event
// structs are allocated and no observer closure runs during replay.
// The encoded footprint is
//
//	~1 B/inst (id) + 1 bit/inst (taken) + ~1–3 B/memref (addr) + 1 bit/memref (store)
//
// which comes to 1.2–1.9 B/inst on the bundled workloads, versus
// 4 B/inst plus 8 B/memref for the simulator's raw columns and 64 B/inst
// for a slice of funcsim.Event.
package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"

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
	taken    []uint64 // bitset over dynamic instructions
	memStore []uint64 // bitset over memory references
	sidEnc   []byte   // uvarint static id per dynamic instruction
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
		e = NewEncoder(p, static, maxInsts)
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
// Stream hands its consumer), sized for a run of up to maxInsts
// instructions (0 = to completion).
func NewEncoder(p *prog.Program, static []Static, maxInsts uint64) *Encoder {
	hint := maxInsts
	if hint == 0 || hint > 1<<20 {
		hint = 1 << 20
	}
	// An id takes at most as many uvarint bytes as the static count: one
	// for a real workload, two for a clone of ~1400 instructions. The
	// bundled workloads make 0.01–0.33 memory references and 0.04–0.8
	// address bytes per instruction, so half the budget holds the
	// address stream of nearly all of them without regrowing.
	var idBuf [binary.MaxVarintLen64]byte
	idBytes := uint64(binary.PutUvarint(idBuf[:], uint64(len(static))))
	return &Encoder{t: &Trace{
		prog:     p,
		static:   static,
		sidEnc:   make([]byte, 0, hint*idBytes),
		taken:    make([]uint64, 0, (hint+63)/64),
		memEnc:   make([]byte, 0, hint/2),
		memStore: make([]uint64, 0, (hint/2+63)/64),
	}}
}

// Add encodes the next chunk of the stream. Chunks must arrive in
// order, as Stream yields them.
func (e *Encoder) Add(c *Chunk) {
	t := e.t
	// Encode into locals and store them back once per chunk: the Trace's
	// fields live on the heap, its locals in registers.
	sidEnc := t.sidEnc
	for _, sid := range c.SIDs {
		switch {
		case sid < 1<<7: // one-byte uvarint: nearly every id of a real program
			sidEnc = append(sidEnc, byte(sid))
		case sid < 1<<14: // two bytes: nearly every id of a clone
			sidEnc = append(sidEnc, byte(sid)|0x80, byte(sid>>7))
		default:
			sidEnc = binary.AppendUvarint(sidEnc, uint64(sid))
		}
	}
	t.sidEnc = sidEnc
	// Base is 64-aligned, so the chunk's taken words are the trace's.
	t.taken = append(t.taken, c.Taken...)
	t.insts += uint64(len(c.SIDs))
	memEnc, last := t.memEnc, e.prev
	for _, a := range c.Addrs {
		memEnc = appendAddr(memEnc, a, last)
		last = a
	}
	t.memEnc, e.prev = memEnc, last
	n := uint64(len(c.Addrs))
	t.memStore = appendBits(t.memStore, t.numMem, c.Stores, n)
	t.numMem += n
}

// Finish returns the trace; halted is what Stream reported. The Encoder
// must not be used afterwards.
func (e *Encoder) Finish(halted bool) *Trace {
	t := e.t
	e.t = nil
	t.halted = halted
	// A captured trace lives as long as its pair, so its streams keep no
	// spare capacity: a budget hint is far above the need of a program
	// that halts early or touches memory rarely.
	t.sidEnc, t.taken = fit(t.sidEnc), fit(t.taken)
	t.memEnc, t.memStore = fit(t.memEnc), fit(t.memStore)
	return t
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
func FromColumns(p *prog.Program, sid []uint32, taken, memAddr, memStore []uint64, insts uint64, halted bool) *Trace {
	t := &Trace{
		prog: p, static: buildStatic(p), taken: taken, memStore: memStore,
		insts: insts, numMem: uint64(len(memAddr)), halted: halted,
	}
	for _, v := range sid {
		t.sidEnc = binary.AppendUvarint(t.sidEnc, uint64(v))
	}
	var prev uint64
	for _, a := range memAddr {
		t.memEnc = appendAddr(t.memEnc, a, prev)
		prev = a
	}
	return t
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
