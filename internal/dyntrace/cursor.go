package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"

	"perfclone/internal/supervise"
)

// ChunkLen is the number of dynamic instructions a Walk yields per
// chunk (the last chunk of a walk may be shorter). It is also the grain
// at which uarch feeds its pipelines, so every replay cuts the stream at
// the same edges, and the cadence at which walks poll their context.
const ChunkLen = 1 << 16

// Cursor streams a trace's two columns in order, straight out of the
// encoded (possibly mmapped) bytes into the caller's buffers. The static
// ids are rebuilt one basic block at a time by following the program's
// control flow (flow) and the taken bitset; the addresses are
// varint-decoded. The columns advance independently: a reader pulls a
// run of static ids, counts the memory references among them, and pulls
// exactly that many addresses. A Cursor is single-goroutine; Walk is the
// reader every consumer uses.
type Cursor struct {
	f      *flow
	taken  []uint64
	memEnc []byte
	prev   uint64 // delta accumulator for the address stream
	i      uint64 // instructions consumed
	mi     uint64 // references consumed
	bi     int    // the block the next id is in
	sid    uint32 // the next id; blocks[bi].end once the block is spent
}

// NewCursor returns a cursor positioned at the start of both columns.
func (t *Trace) NewCursor() *Cursor {
	c := &Cursor{f: t.flow, taken: t.taken, memEnc: t.memEnc, bi: t.flow.entry}
	if uint(c.bi) < uint(len(c.f.blocks)) {
		c.sid = c.f.blocks[c.bi].start
	}
	return c
}

// NextSIDs fills buf with the next len(buf) static ids. It errors —
// rather than panics — when the path cannot be followed that far: it
// halted, a branch's taken bit lies past the bitset, or control leaves
// the program. An error consumes nothing.
func (c *Cursor) NextSIDs(buf []uint32) ([]uint32, error) {
	sids, _, err := c.nextSIDs(buf)
	return sids, err
}

// nextSIDs is NextSIDs that also counts the memory references among the
// ids, a block run at a time.
func (c *Cursor) nextSIDs(buf []uint32) ([]uint32, uint64, error) {
	blocks, ids, memBefore := c.f.blocks, c.f.ids, c.f.memBefore
	bi, sid := c.bi, c.sid
	var nmem uint64
	for k := 0; k < len(buf); {
		if uint(bi) >= uint(len(blocks)) {
			return nil, 0, fmt.Errorf("control flow leaves the program (block %d) at instruction %d", bi, c.i+uint64(k))
		}
		b := &blocks[bi]
		if sid < b.end {
			n := min(b.end-sid, uint32(len(buf)-k))
			copy(buf[k:], ids[sid:sid+n])
			nmem += uint64(memBefore[sid+n] - memBefore[sid])
			sid += n
			k += int(n)
			continue
		}
		// The block is spent: its terminator picks the successor.
		switch b.kind {
		case termHalt:
			return nil, 0, fmt.Errorf("path halted before instruction %d", c.i+uint64(k))
		case termJmp:
			bi = b.target
		case termBranch:
			at := c.i + uint64(k) - 1 // the branch's dynamic index
			if at>>6 >= uint64(len(c.taken)) {
				return nil, 0, fmt.Errorf("taken bitset has %d words, branch at instruction %d needs %d", len(c.taken), at, at>>6+1)
			}
			if c.taken[at>>6]>>(at&63)&1 != 0 {
				bi = b.target
			} else {
				bi++
			}
		default:
			bi++
		}
		if uint(bi) < uint(len(blocks)) {
			sid = blocks[bi].start
		}
	}
	c.bi, c.sid = bi, sid
	c.i += uint64(len(buf))
	return buf, nmem, nil
}

// NextAddrs decodes the next len(buf) effective addresses into buf, with
// NextSIDs' error contract. The address stream is zigzag-delta encoded
// with wrapping arithmetic, so any 64-bit address sequence round-trips
// exactly.
func (c *Cursor) NextAddrs(buf []uint64) ([]uint64, error) {
	off := 0
	enc := c.memEnc
	prev := c.prev
	for k := range buf {
		// binary.Varint by hand: its Uvarint core inlines, Varint does not.
		ux, w := binary.Uvarint(enc[off:])
		if w <= 0 {
			return nil, fmt.Errorf("address stream exhausted or malformed at reference %d", c.mi+uint64(k))
		}
		d := ux >> 1
		if ux&1 != 0 {
			d = ^d
		}
		prev += d
		buf[k] = prev
		off += w
	}
	c.memEnc = enc[off:]
	c.prev = prev
	c.mi += uint64(len(buf))
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
	// Taken is the taken bitset over SIDs: bit k is SIDs[k]'s branch
	// direction. Base is 64-aligned, so a Walk's words are the trace's
	// own.
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
// A Walk is single-goroutine; start one per pass.
type Walk struct {
	t        *Trace
	cur      Cursor
	n        uint64 // instructions to yield
	c        Chunk
	sidBuf   []uint32
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
		addrBuf:  make([]uint64, k),
		storeBuf: make([]uint64, (k+63)/64),
	}
}

// Done reports that the walk has yielded all of its instructions.
func (w *Walk) Done() bool { return w.cur.i >= w.n }

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
	t := w.t
	base := w.cur.i
	k := min(w.n-base, ChunkLen)
	if need := (base + k + 63) >> 6; need > uint64(len(t.taken)) {
		return nil, fmt.Errorf("dyntrace: %s: taken bitset has %d words, need %d for %d instructions",
			t.prog.Name, len(t.taken), need, base+k)
	}
	sids, nmem, err := w.cur.nextSIDs(w.sidBuf[:k])
	if err != nil {
		return nil, fmt.Errorf("dyntrace: %s: %w", t.prog.Name, err)
	}
	mi := w.cur.mi
	addrs, err := w.cur.NextAddrs(w.addrBuf[:nmem])
	if err != nil {
		return nil, fmt.Errorf("dyntrace: %s: %w", t.prog.Name, err)
	}
	if need := (mi + nmem + 63) >> 6; need > uint64(len(t.memStore)) {
		return nil, fmt.Errorf("dyntrace: %s: store bitset has %d words, need %d for %d references",
			t.prog.Name, len(t.memStore), need, mi+nmem)
	}
	w.c = Chunk{
		Base:   base,
		SIDs:   sids,
		Taken:  t.taken[base>>6 : (base+k+63)>>6],
		Addrs:  addrs,
		Stores: rebaseBits(w.storeBuf, t.memStore, mi, nmem),
	}
	return &w.c, nil
}

// rebaseBits copies bits [off, off+n) of src into dst starting at bit 0;
// bits of the last word past n are zero.
func rebaseBits(dst, src []uint64, off, n uint64) []uint64 {
	dst = dst[:(n+63)/64]
	w, s := off>>6, off&63
	for k := range dst {
		i := w + uint64(k)
		v := src[i] >> s
		if s != 0 && i+1 < uint64(len(src)) {
			v |= src[i+1] << (64 - s)
		}
		dst[k] = v
	}
	if r := n & 63; r != 0 {
		dst[len(dst)-1] &= 1<<r - 1
	}
	return dst
}

// Mem returns the data-reference stream of the first maxInsts dynamic
// instructions (0 or ≥ Insts() = the whole trace): a fresh address slice
// and the trace's store bitset, whose bit i belongs to addrs[i]. It is a
// thin wrapper over Walk that caches nothing, kept for perfbench, its
// only caller outside tests; everything else takes the stream a chunk at
// a time. A malformed trace panics.
func (t *Trace) Mem(maxInsts uint64) (addrs []uint64, storeBits []uint64) {
	w := t.Walk(maxInsts)
	for !w.Done() {
		c, err := w.Next(context.Background())
		if err != nil {
			panic(err)
		}
		addrs = append(addrs, c.Addrs...)
	}
	return addrs, t.memStore
}
