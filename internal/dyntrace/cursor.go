package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"perfclone/internal/supervise"
)

// ChunkLen is the number of dynamic instructions a Walk yields per
// chunk (the last chunk of a walk may be shorter). It is also the grain
// at which uarch feeds its pipelines, so every replay cuts the stream at
// the same edges, and the cadence at which walks poll their context.
const ChunkLen = 1 << 16

// path is a position on a trace's block path, which it follows one
// block run at a time on the program's control-flow table (flow),
// taking each conditional branch's direction from the trace, and in the
// trace's address column. Every reader of a trace follows its own path,
// with its own copy of the address predictor: Walk, both columns of a
// Cursor, the load check and FromColumns.
type path struct {
	t     *Trace
	resid []byte   // the residuals not yet decoded
	pred  []stride // the address predictor, per static memory instruction
	bi    int      // the block the next id is in
	sid   uint32   // the next id; blocks[bi].end once the block is spent
	taken bool     // the direction of the spent block's branch
	i     uint64   // ids passed
	bn    uint64   // branch directions passed
	mi    uint64   // references passed
}

// start returns a path at the entry of t's program.
func (t *Trace) start() path {
	p := path{t: t, resid: t.resid, pred: make([]stride, len(t.flow.memStore)), bi: t.flow.entry}
	if uint(p.bi) < uint(len(t.flow.blocks)) {
		p.sid = t.flow.blocks[p.bi].start
	}
	return p
}

// follow advances p by n ids, stopping early right after the m-th
// reference. Unless they are nil, it copies the ids into ids, sets the
// bit of each taken branch in taken (indexed from p's position, zeroed
// by the caller), and decodes the references' addresses (see Save) into
// addrs, with their store bitset in stores. It errors — rather than
// panics — when the path cannot be followed that far (it halts, a
// branch has no direction in the trace, or control leaves the program)
// or an address cannot be decoded. p then stays where the error arose.
func (p *path) follow(ids []uint32, taken []uint64, n, m uint64, addrs, stores []uint64) error {
	t, f := p.t, p.t.flow
	blocks, memBefore := f.blocks, f.memBefore
	bi, sid, dir, bn := p.bi, p.sid, p.taken, p.bn
	hits, numMem, resid, pred, mi := t.hits, t.numMem, p.resid, p.pred, p.mi
	var k, refs uint64
	var off int // residual bytes decoded
	var err error
	var sw uint64 // the store bits of addrs[refs&^63 : refs]
loop:
	for k < n && refs < m {
		if uint(bi) >= uint(len(blocks)) {
			err = fmt.Errorf("control flow leaves the program (block %d) at instruction %d", bi, p.i+k)
			break
		}
		b := &blocks[bi]
		if sid == b.end {
			// The block is spent: its terminator picks the successor.
			switch b.kind {
			case termHalt:
				err = fmt.Errorf("path halted before instruction %d", p.i+k)
				break loop
			case termJmp:
				bi = b.target
			case termBranch:
				bi++
				if dir {
					bi = b.target
				}
			default:
				bi++
			}
			if uint(bi) < uint(len(blocks)) {
				sid = blocks[bi].start
			}
			continue
		}
		e := b.end
		if uint64(e-sid) > n-k {
			e = sid + uint32(n-k)
		}
		lo, hi := memBefore[sid], memBefore[e]
		if uint64(hi-lo) >= m-refs { // end the run at the m-th reference
			for hi, e = lo+uint32(m-refs), sid+1; memBefore[e] < hi; e++ {
			}
		}
		if ids != nil {
			copy(ids[k:], f.ids[sid:e])
		}
		k, sid = k+uint64(e-sid), e
		ps, ms := pred[lo:hi], f.memStore[lo:hi]
		if addrs == nil { // count the references without decoding them
			refs, ps = refs+uint64(hi-lo), nil
		}
		for i := range ps {
			j := mi + refs
			if j == numMem {
				err = fmt.Errorf("address stream exhausted or malformed at reference %d", j)
				break loop
			}
			pr := &ps[i]
			if hits[j>>6]>>(j&63)&1 == 0 {
				// binary.Varint by hand. Residuals of one and two bytes,
				// nearly all of them, skip the generic loop and decode
				// exactly as binary.Uvarint does.
				var ux uint64
				switch {
				case off < len(resid) && resid[off] < 0x80:
					ux, off = uint64(resid[off]), off+1
				case off+1 < len(resid) && resid[off+1] < 0x80:
					ux, off = uint64(resid[off]&0x7f)|uint64(resid[off+1])<<7, off+2
				default:
					v, w := binary.Uvarint(resid[off:])
					if w <= 0 {
						err = fmt.Errorf("address stream exhausted or malformed at reference %d", j)
						break loop
					}
					ux, off = v, off+w
				}
				pr.stride = ux>>1 ^ -(ux & 1)
			}
			pr.last += pr.stride
			addrs[refs] = pr.last
			sw |= uint64(ms[i]) << (refs & 63)
			refs++
			if refs&63 == 0 && stores != nil {
				stores[refs>>6-1], sw = sw, 0
			}
		}
		// A run's branch is its last instruction, after its references.
		if sid == b.end && b.kind == termBranch {
			if bn >= t.nBranch {
				err = fmt.Errorf("the branch at instruction %d has no direction: the trace holds %d", p.i+k-1, t.nBranch)
				break
			}
			dir = t.branch[bn>>6]>>(bn&63)&1 != 0
			bn++
			if dir && taken != nil {
				taken[(k-1)>>6] |= 1 << ((k - 1) & 63)
			}
		}
	}
	if refs&63 != 0 && stores != nil {
		stores[refs>>6] = sw
	}
	p.bi, p.sid, p.taken, p.bn, p.resid = bi, sid, dir, bn, resid[off:]
	p.i, p.mi = p.i+k, p.mi+refs
	return err
}

// Cursor streams a trace's two columns in order, straight out of the
// encoded (possibly mmapped) bytes into the caller's buffers. The
// columns advance independently: each follows the path on its own, so
// a reader may pull every id first and then every address, or pull a
// run of ids, count the memory references among them and pull exactly
// that many addresses. A Cursor is single-goroutine; Walk is the reader
// every consumer uses.
type Cursor struct {
	ids  path // NextSIDs' position
	refs path // NextAddrs' position
}

// NewCursor returns a cursor positioned at the start of both columns.
func (t *Trace) NewCursor() *Cursor {
	return &Cursor{ids: t.start(), refs: t.start()}
}

// NextSIDs fills buf with the next len(buf) static ids. It errors —
// rather than panics — when the path cannot be followed that far: it
// halted, a branch has no direction in the trace, or control leaves
// the program. An error consumes nothing.
func (c *Cursor) NextSIDs(buf []uint32) ([]uint32, error) {
	at := c.ids
	if err := c.ids.follow(buf, nil, uint64(len(buf)), math.MaxUint64, nil, nil); err != nil {
		c.ids = at
		return nil, err
	}
	return buf, nil
}

// NextAddrs decodes the next len(buf) effective addresses into buf,
// following the path to their static instructions, with NextSIDs'
// error contract.
func (c *Cursor) NextAddrs(buf []uint64) ([]uint64, error) {
	at, pred := c.refs, slices.Clone(c.refs.pred)
	if err := c.refs.follow(nil, nil, math.MaxUint64, uint64(len(buf)), buf, nil); err != nil {
		c.refs = at
		copy(c.refs.pred, pred)
		return nil, err
	}
	return buf, nil
}

// Chunk is one window of a dynamic stream, yielded by a Walk or a
// Stream. It and its slices are read-only and valid until the producer
// yields the next one.
type Chunk struct {
	// Base is the dynamic index of the chunk's first instruction. It is
	// a multiple of 64. How many instructions a chunk holds is not part
	// of the contract: consumers must give the same result however the
	// stream is cut.
	Base uint64
	// SIDs holds one static id per instruction, indexing the program's
	// static table (Statics, or the table Stream hands its consumer).
	SIDs []uint32
	// Taken is the taken bitset over SIDs: bit k is set when SIDs[k] is
	// a taken conditional branch (never for a jmp).
	Taken []uint64
	// Addrs holds the effective address of each of the chunk's memory
	// references, in dynamic order.
	Addrs []uint64
	// Stores is the store bitset over Addrs: bit j is set when Addrs[j]
	// is a store.
	Stores []uint64
}

// Walk is the one reader of a trace's dynamic stream: a pull-style pass
// over its first n instructions, one Chunk of up to ChunkLen at a time.
// It follows one path for both columns. A Walk is single-goroutine;
// start one per pass.
type Walk struct {
	t        *Trace
	cur      Cursor
	n        uint64 // instructions to yield
	c        Chunk
	sidBuf   []uint32
	takenBuf []uint64
	addrBuf  []uint64
	storeBuf []uint64
}

// Walk starts a walk over the first n dynamic instructions of t (0 or
// ≥ Insts() = the whole trace).
func (t *Trace) Walk(n uint64) *Walk {
	if n == 0 || n > t.insts {
		n = t.insts
	}
	k := min(n, ChunkLen)
	return &Walk{
		t: t, n: n,
		cur:      *t.NewCursor(),
		sidBuf:   make([]uint32, k),
		takenBuf: make([]uint64, (k+63)/64),
		addrBuf:  make([]uint64, k),
		storeBuf: make([]uint64, (k+63)/64),
	}
}

// Done reports that the walk has yielded all of its instructions.
func (w *Walk) Done() bool { return w.cur.ids.i >= w.n }

// Next yields the walk's next chunk. It polls ctx first, returning the
// context's cause (context.Cause, so a watchdog's supervise.ErrStuck or
// a stage deadline survives) once ctx is done, and ticks any supervision
// heartbeat ctx carries. A column shorter than the trace's header
// claims, or a path that halts or leaves the program before it, is an
// error, not a panic.
func (w *Walk) Next(ctx context.Context) (*Chunk, error) {
	if err := supervise.Cause(ctx); err != nil {
		return nil, err
	}
	supervise.Beat(ctx)
	p := &w.cur.ids
	base, mi := p.i, p.mi
	k := min(w.n-base, ChunkLen)
	taken := w.takenBuf[:(k+63)/64]
	clear(taken)
	if err := p.follow(w.sidBuf[:k], taken, k, math.MaxUint64, w.addrBuf, w.storeBuf); err != nil {
		return nil, fmt.Errorf("dyntrace: %s: %w", w.t.prog.Name, err)
	}
	nmem := p.mi - mi
	w.c = Chunk{Base: base, SIDs: w.sidBuf[:k], Taken: taken, Addrs: w.addrBuf[:nmem], Stores: w.storeBuf[:(nmem+63)/64]}
	return &w.c, nil
}

// Mem returns the data-reference stream of the first maxInsts dynamic
// instructions (0 or ≥ Insts() = the whole trace): a fresh address slice
// and a store bitset whose bit i belongs to addrs[i]. It is a thin
// wrapper over Walk that caches nothing, kept for perfbench, its only
// caller outside tests; everything else takes the stream a chunk at a
// time. A malformed trace panics.
func (t *Trace) Mem(maxInsts uint64) (addrs []uint64, storeBits []uint64) {
	w := t.Walk(maxInsts)
	for !w.Done() {
		c, err := w.Next(context.Background())
		if err != nil {
			panic(err)
		}
		storeBits = appendBits(storeBits, uint64(len(addrs)), c.Stores, uint64(len(c.Addrs)))
		addrs = append(addrs, c.Addrs...)
	}
	return addrs, storeBits
}
