package profile

import (
	"context"
	"fmt"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
)

// collectReference is the per-event profiler the chunked collector
// replaced: a funcsim observer closure with map lookups per instruction,
// a stride-histogram increment per access and the successor edge taken
// from funcsim's NextBlock. It is kept as the reference the collector's
// two feeds must match byte for byte.
func collectReference(ctx context.Context, p *prog.Program, opts Options) (*Profile, error) {
	pr := &Profile{
		Name:     p.Name,
		Nodes:    make(map[NodeKey]*Node),
		Mem:      make(map[StaticRef]*MemStat),
		Branches: make(map[StaticRef]*BranchStat),
	}
	var lastWrite [isa.NumRegs]uint64 // seq+1 of last producer; 0 = never
	prevBlock := -1
	var curNode *Node
	var srcBuf [2]isa.Reg

	obs := func(evs []funcsim.Event) error {
		for k := range evs {
			ev := &evs[k]
			if ev.Seq&(1<<16-1) == 0 {
				if err := supervise.Cause(ctx); err != nil {
					return err
				}
			}
			if ev.Index == 0 {
				key := NodeKey{Prev: prevBlock, Block: ev.Block}
				if opts.PerBlockNodes {
					key.Prev = -1
				}
				n := pr.Nodes[key]
				if n == nil {
					n = &Node{
						Key:  key,
						Size: len(p.Blocks[ev.Block].Insts),
						Term: termKind(p.Blocks[ev.Block].Terminator()),
						Succ: make(map[int]uint64),
					}
					pr.Nodes[key] = n
				}
				n.Count++
				curNode = n
			}
			in := ev.Inst
			cls := in.Op.Class()
			pr.GlobalMix[cls]++
			curNode.ClassCounts[cls]++

			for _, s := range in.Sources(srcBuf[:0]) {
				if s == isa.RZero {
					continue
				}
				if lw := lastWrite[s]; lw != 0 {
					d := ev.Seq - (lw - 1)
					if d == 0 {
						d = 1
					}
					b := DepBucket(d)
					pr.GlobalDepDist[b]++
					curNode.DepDist[b]++
				}
			}
			if d := in.Dest(); d != isa.NoReg && d != isa.RZero {
				lastWrite[d] = ev.Seq + 1
			}

			if in.Op.IsMem() {
				ref := StaticRef{ev.Block, ev.Index}
				ms := pr.Mem[ref]
				if ms == nil {
					ms = &MemStat{Ref: ref, Op: in.Op, strideHist: make(map[int64]uint64), FirstAddr: ev.Addr}
					pr.Mem[ref] = ms
				}
				referenceRecord(ms, ev.Addr)
			}

			if in.Op.IsBranch() {
				ref := StaticRef{ev.Block, ev.Index}
				bs := pr.Branches[ref]
				if bs == nil {
					bs = &BranchStat{Ref: ref}
					pr.Branches[ref] = bs
				}
				bs.Count++
				if ev.Taken {
					bs.Taken++
				}
				if bs.seen && bs.lastDir != ev.Taken {
					bs.Transitions++
				}
				bs.lastDir = ev.Taken
				bs.seen = true
			}

			if ev.Index == len(p.Blocks[ev.Block].Insts)-1 && ev.NextBlock >= 0 {
				curNode.Succ[ev.NextBlock]++
			}
			prevBlock = ev.Block
			pr.TotalInsts++
		}
		return nil
	}

	m, err := funcsim.New(p)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if _, err := m.RunBatch(funcsim.Limits{MaxInsts: opts.MaxInsts}, obs); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Close each trailing run here, so finalize only derives the
	// dominant stride and the mean stream length.
	for _, ms := range pr.Mem {
		if ms.runLen >= 3 {
			ms.runs++
			ms.runTotal += ms.runLen
		}
		ms.runValid = false
		ms.runLen = 0
	}
	pr.finalize()
	return pr, nil
}

// referenceRecord is the per-access stride update: one histogram
// increment per stride.
func referenceRecord(ms *MemStat, addr uint64) {
	ms.Count++
	if !ms.seenFirst {
		ms.seenFirst = true
		ms.lastAddr = addr
		ms.MinAddr, ms.MaxAddr = addr, addr
		ms.runLen = 1
		return
	}
	ms.MinAddr = min(ms.MinAddr, addr)
	ms.MaxAddr = max(ms.MaxAddr, addr)
	stride := int64(addr) - int64(ms.lastAddr)
	ms.strideHist[stride]++
	ms.lastAddr = addr
	switch {
	case !ms.runValid:
		ms.runValid = true
		ms.lastStride = stride
		ms.runLen = 2
	case stride == ms.lastStride:
		ms.runLen++
	default:
		if ms.runLen >= 3 {
			ms.runs++
			ms.runTotal += ms.runLen
		}
		ms.lastStride = stride
		ms.runLen = 2
	}
}
