package profile

import (
	"context"
	"fmt"

	"perfclone/internal/dyntrace"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

// CollectContext profiles a program by functional execution, the role
// the modified sim-safe plays in the paper's Figure 1. (On a real
// workload a binary instrumentation tool such as ATOM or Pin would
// produce the same event stream.) It streams the program's execution
// (dyntrace.Stream) into the profile accumulator one chunk at a time,
// without building a trace. The stream polls ctx once per chunk,
// stopping with the context's cancellation cause, and ticks any
// supervision heartbeat carried by ctx at the same cadence, so a long
// profiling pass under a watchdog never reads as a wedged task.
func CollectContext(ctx context.Context, p *prog.Program, opts Options) (*Profile, error) {
	var c *collector
	if _, err := dyntrace.Stream(ctx, p, opts.MaxInsts, func(static []dyntrace.Static) func(*dyntrace.Chunk) error {
		c = newCollector(p, static, opts)
		return func(ch *dyntrace.Chunk) error {
			c.add(ch)
			return nil
		}
	}); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return c.finish(), nil
}

// CaptureContext runs p once, for up to budget dynamic instructions
// (0 = to completion), and returns both its trace and the profile of
// its first opts.MaxInsts instructions: one dyntrace.Stream feeds a
// dyntrace.Encoder and the profile accumulator chunk by chunk. The trace
// equals dyntrace.CaptureContext's and the profile CollectContext's; the
// collector stops at its own budget. The profile must fit in the run:
// budget is 0, or opts.MaxInsts is nonzero and at most budget.
func CaptureContext(ctx context.Context, p *prog.Program, budget uint64, opts Options) (*dyntrace.Trace, *Profile, error) {
	if budget != 0 && (opts.MaxInsts == 0 || opts.MaxInsts > budget) {
		return nil, nil, fmt.Errorf("profile: %s: profile budget %d exceeds trace budget %d", p.Name, opts.MaxInsts, budget)
	}
	var e *dyntrace.Encoder
	var c *collector
	halted, err := dyntrace.Stream(ctx, p, budget, func(static []dyntrace.Static) func(*dyntrace.Chunk) error {
		e = dyntrace.NewEncoder(p, static)
		c = newCollector(p, static, opts)
		return func(ch *dyntrace.Chunk) error {
			e.Add(ch)
			c.add(ch)
			return nil
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: capture %s: %w", p.Name, err)
	}
	return e.Finish(halted), c.finish(), nil
}

// depBucket is DepBucket as a table over distances 0..32; every larger
// distance is the last bucket.
var depBucket = func() (t [33]uint8) {
	for d := range t {
		t[d] = uint8(DepBucket(uint64(d)))
	}
	return t
}()

// Register slots of the collector's last-writer table beyond the
// architected registers: a source that reads nothing (absent or the zero
// register) reads readSink, which is never written, and a destination
// that writes nothing writes writeSink, which is never read.
const (
	readSink  = isa.NumRegs
	writeSink = isa.NumRegs + 1
)

// Per-static-id flags.
const (
	fFirst  = 1 << iota // first instruction of its block
	fLast               // last instruction of its block
	fMem                // load or store
	fBranch             // conditional branch
)

// sinfo is the collector's per-static-id view of the program.
type sinfo struct {
	src1, src2, dest uint8 // last-writer slots
	class            uint8
	flags            uint8
	block            int32
	// fall and taken are the successor block when the instruction ends
	// its block and is not taken or taken; -1 after halt. prog.Validate
	// keeps control ops last in their block, so the terminator and the
	// taken bit decide the successor.
	fall, taken int32
}

// nodeAcc is one SFG node under construction, with its successor edges
// counted run-length: succ repeated run times since the last flush.
type nodeAcc struct {
	n    *Node
	succ int32
	run  uint64
}

// flush folds the pending successor run into the node's edge counts.
func (a *nodeAcc) flush() {
	if a.run > 0 {
		a.n.Succ[int(a.succ)] += a.run
		a.run = 0
	}
}

// blockCache remembers the node a block last ran as, under its
// predecessor: loops re-enter a block from the same predecessor, so the
// node map is consulted only when the context changes.
type blockCache struct {
	prev int32
	acc  *nodeAcc
}

// collector is the one profile accumulator. Both feeds hand it a
// streamed execution chunk by chunk: CollectContext alone, and
// CaptureContext beside the trace encoder. Everything keyed by static
// instruction lives in dense per-static-id slices, made up front; a
// profile keeps the entries that executed. Only SFG nodes, keyed by
// (predecessor, block), need a map.
type collector struct {
	p      *prog.Program
	opts   Options
	info   []sinfo
	mem    []*MemStat
	branch []*BranchStat
	nodes  map[NodeKey]*nodeAcc
	cache  []blockCache
	cur    *nodeAcc
	block  int32 // block of the last instruction seen; -1 before the first
	insts  uint64
	// lastWrite holds 1 + the dynamic index of each register's last
	// producer (0 = never written), plus the two sink slots.
	lastWrite [isa.NumRegs + 2]uint64
}

func newCollector(p *prog.Program, static []dyntrace.Static, opts Options) *collector {
	c := &collector{
		p:      p,
		opts:   opts,
		info:   make([]sinfo, len(static)),
		mem:    make([]*MemStat, len(static)),
		branch: make([]*BranchStat, len(static)),
		nodes:  make(map[NodeKey]*nodeAcc),
		cache:  make([]blockCache, len(p.Blocks)),
		block:  -1,
	}
	slot := func(r isa.Reg, sink uint8) uint8 {
		if r == isa.NoReg || r == isa.RZero {
			return sink
		}
		return uint8(r)
	}
	for i := range static {
		st := &static[i]
		blk := &p.Blocks[st.Block]
		in := &blk.Insts[st.Index]
		si := sinfo{
			src1:  slot(st.Src1, readSink),
			src2:  slot(st.Src2, readSink),
			dest:  slot(st.Dest, writeSink),
			class: uint8(st.Class),
			block: st.Block,
			fall:  st.Block + 1,
			taken: st.Block + 1,
		}
		switch {
		case st.Op == isa.OpHalt:
			si.fall, si.taken = -1, -1
		case st.Jump:
			si.fall, si.taken = int32(in.Target), int32(in.Target)
		case st.Branch:
			si.taken = int32(in.Target)
		}
		if st.Index == 0 {
			si.flags |= fFirst
		}
		if int(st.Index) == len(blk.Insts)-1 {
			si.flags |= fLast
		}
		ref := StaticRef{Block: int(st.Block), Index: int(st.Index)}
		if st.Mem {
			si.flags |= fMem
			c.mem[i] = &MemStat{Ref: ref, Op: st.Op, strideHist: make(map[int64]uint64)}
		}
		if st.Branch {
			si.flags |= fBranch
			c.branch[i] = &BranchStat{Ref: ref}
		}
		c.info[i] = si
	}
	return c
}

// add accumulates one chunk, up to the profile's budget: a stream that
// runs longer also feeds a trace.
func (c *collector) add(ch *dyntrace.Chunk) {
	sids := ch.SIDs
	if n := c.opts.MaxInsts; n != 0 && c.insts+uint64(len(sids)) > n {
		sids = sids[:n-c.insts]
	}
	mi := 0
	for k, sid := range sids {
		s := &c.info[sid]
		if s.flags&fFirst != 0 {
			c.enter(s.block)
		}
		n := c.cur.n
		n.ClassCounts[s.class]++
		seq := ch.Base + uint64(k)
		if lw := c.lastWrite[s.src1]; lw != 0 {
			n.DepDist[bucket(seq-(lw-1))]++
		}
		if lw := c.lastWrite[s.src2]; lw != 0 {
			n.DepDist[bucket(seq-(lw-1))]++
		}
		c.lastWrite[s.dest] = seq + 1
		if s.flags&^fFirst == 0 {
			continue
		}
		if s.flags&fMem != 0 {
			c.mem[sid].record(ch.Addrs[mi])
			mi++
		}
		taken := ch.Taken[k>>6]>>(k&63)&1 != 0
		if s.flags&fBranch != 0 {
			c.branch[sid].record(taken)
		}
		if s.flags&fLast != 0 {
			next := s.fall
			if taken {
				next = s.taken
			}
			if next >= 0 {
				if a := c.cur; a.succ == next {
					a.run++
				} else {
					a.flush()
					a.succ, a.run = next, 1
				}
			}
		}
	}
	c.insts += uint64(len(sids))
}

// bucket is DepBucket for a distance ≥ 1.
func bucket(d uint64) uint8 {
	if d >= uint64(len(depBucket)) {
		return NumDepBuckets - 1
	}
	return depBucket[d]
}

// enter starts an instance of block b, continuing from c.block.
func (c *collector) enter(b int32) {
	prev := c.block
	if c.opts.PerBlockNodes {
		prev = -1
	}
	bc := &c.cache[b]
	if bc.acc == nil || bc.prev != prev {
		key := NodeKey{Prev: int(prev), Block: int(b)}
		a := c.nodes[key]
		if a == nil {
			blk := &c.p.Blocks[b]
			a = &nodeAcc{n: &Node{
				Key:  key,
				Size: len(blk.Insts),
				Term: termKind(blk.Terminator()),
				Succ: make(map[int]uint64),
			}}
			c.nodes[key] = a
		}
		bc.prev, bc.acc = prev, a
	}
	bc.acc.n.Count++
	c.cur = bc.acc
	c.block = b
}

// finish flushes the batched counts and builds the Profile.
func (c *collector) finish() *Profile {
	pr := &Profile{
		Name:       c.p.Name,
		TotalInsts: c.insts,
		Nodes:      make(map[NodeKey]*Node, len(c.nodes)),
		Mem:        make(map[StaticRef]*MemStat),
		Branches:   make(map[StaticRef]*BranchStat),
	}
	for key, a := range c.nodes {
		a.flush()
		n := a.n
		pr.Nodes[key] = n
		for i, v := range n.ClassCounts {
			pr.GlobalMix[i] += v
		}
		for i, v := range n.DepDist {
			pr.GlobalDepDist[i] += v
		}
	}
	for _, ms := range c.mem {
		if ms != nil && ms.Count > 0 {
			pr.Mem[ms.Ref] = ms
		}
	}
	for _, bs := range c.branch {
		if bs != nil && bs.Count > 0 {
			pr.Branches[bs.Ref] = bs
		}
	}
	pr.finalize()
	return pr
}
