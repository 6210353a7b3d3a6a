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
// the PCDT v2 encoding (see Save). Capture writes it as the program
// runs: a uvarint static-instruction id per retired instruction, a taken
// bitset indexed by dynamic position, and, per memory reference (not per
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
// ~100 B/inst for a slice of funcsim.Event.
package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

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
// Cursor. A Trace is immutable after Capture or Load and safe for
// concurrent walks from many goroutines.
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

	// decodeCache memoizes one consumer-defined decode product (see
	// DecodeCache); stored as any so dyntrace stays free of consumer
	// types. decodeOnce makes the build single-flight.
	decodeOnce  sync.Once
	decodeCache atomic.Value

	// release unmaps or otherwise frees the backing storage of a
	// zero-copy load (see LoadBytes and Close).
	release func() error
}

// Capture executes p functionally (up to maxInsts dynamic instructions;
// 0 = to completion) and records the dynamic stream.
func Capture(p *prog.Program, maxInsts uint64) (*Trace, error) {
	return CaptureContext(context.Background(), p, maxInsts)
}

// CaptureContext is Capture with cooperative cancellation: the batch
// observer polls ctx once per event batch, aborting the capture with the
// context's cancellation cause, and ticks any supervision heartbeat
// carried by ctx at the same cadence so a long capture under a watchdog
// never reads as a wedged task. Each event is encoded as it arrives, so
// the trace never holds a raw column.
func CaptureContext(ctx context.Context, p *prog.Program, maxInsts uint64) (*Trace, error) {
	m, err := funcsim.New(p)
	if err != nil {
		return nil, err
	}
	tick := supervise.TickerFrom(ctx)
	watched := ctx.Done() != nil || tick != nil
	static, base := buildStatic(p)
	hint := maxInsts
	if hint == 0 || hint > 1<<20 {
		hint = 1 << 20
	}
	t := &Trace{
		prog:   p,
		static: static,
		sidEnc: make([]byte, 0, hint),
		taken:  make([]uint64, 0, (hint+63)/64),
	}
	var prev uint64 // last address: the address stream is delta-coded
	obs := func(events []funcsim.Event) error {
		if watched {
			if err := supervise.Cause(ctx); err != nil {
				return err
			}
			if tick != nil {
				tick()
			}
		}
		for k := range events {
			ev := &events[k]
			sid := base[ev.Block] + uint32(ev.Index)
			t.sidEnc = binary.AppendUvarint(t.sidEnc, uint64(sid))
			t.taken = appendBit(t.taken, t.insts, ev.Taken)
			t.insts++
			if st := &t.static[sid]; st.Mem {
				t.memEnc = appendAddr(t.memEnc, ev.Addr, prev)
				prev = ev.Addr
				t.memStore = appendBit(t.memStore, t.numMem, st.Store)
				t.numMem++
			}
		}
		return nil
	}
	res, err := m.RunBatch(funcsim.Limits{MaxInsts: maxInsts}, obs)
	if err != nil {
		return nil, fmt.Errorf("dyntrace: capture %s: %w", p.Name, err)
	}
	t.halted = res.Halted
	return t, nil
}

// FromColumns assembles a Trace from raw dynamic columns, encoding them,
// without functional execution and without validation. It exists for
// tests that need malformed traces: a column that disagrees with the
// header or the program surfaces as an error from Walk, not a panic.
func FromColumns(p *prog.Program, sid []uint32, taken, memAddr, memStore []uint64, insts uint64, halted bool) *Trace {
	static, _ := buildStatic(p)
	t := &Trace{
		prog: p, static: static, taken: taken, memStore: memStore,
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

// buildStatic flattens the program's blocks into the static table and
// returns per-block base offsets into it.
func buildStatic(p *prog.Program) ([]Static, []uint32) {
	static := make([]Static, 0, p.NumStaticInsts())
	base := make([]uint32, len(p.Blocks))
	var srcBuf [2]isa.Reg
	for bi := range p.Blocks {
		base[bi] = uint32(len(static))
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
	return static, base
}

func appendBit(bits []uint64, i uint64, v bool) []uint64 {
	if i&63 == 0 {
		bits = append(bits, 0)
	}
	if v {
		bits[i>>6] |= 1 << (i & 63)
	}
	return bits
}

// Program returns the traced program.
func (t *Trace) Program() *prog.Program { return t.prog }

// Insts is the number of retired dynamic instructions recorded.
func (t *Trace) Insts() uint64 { return t.insts }

// Halted reports whether the program reached halt within the capture
// budget.
func (t *Trace) Halted() bool { return t.halted }

// NumMem is the number of memory references recorded.
func (t *Trace) NumMem() uint64 { return t.numMem }

// Statics returns the static-instruction table (read-only).
func (t *Trace) Statics() []Static { return t.static }

// DecodeCache memoizes one consumer-defined decode product on the
// trace, so repeated sweeps over the same trace skip its construction
// (uarch stores its per-static TraceInst template table here). The
// build is single-flight: it runs exactly once per trace, concurrent
// callers block until the winner has stored the product, and every
// caller — then and forever after — receives the same value, so
// pointer-identity comparisons on the product are safe. build must
// return a non-nil value.
func (t *Trace) DecodeCache(build func() any) any {
	if v := t.decodeCache.Load(); v != nil {
		return v
	}
	t.decodeOnce.Do(func() {
		t.decodeCache.Store(build())
	})
	return t.decodeCache.Load()
}

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
