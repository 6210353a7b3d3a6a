// Package profile implements the microarchitecture-independent workload
// characterization of Section 3.1 of the paper: the statistical flow graph
// (SFG) with per-(predecessor, successor) attribute profiles, instruction
// mix, data dependency distance distributions, per-static-instruction
// stride profiles with stream lengths, and branch taken/transition rates.
//
// Everything recorded here is a property of the dynamic instruction stream
// alone — no cache, predictor, or pipeline state is consulted — which is
// what lets a clone generated from the profile track the original program
// across arbitrary microarchitectures.
//
// One accumulator builds every profile from the dynamic stream, a
// dyntrace.Chunk at a time, with dense per-static-instruction counters.
// Both of its feeds stream a fresh execution (dyntrace.Stream):
// CollectContext keeps no trace, and CaptureContext encodes the same
// chunks into a trace as well, so one run of a program yields its trace
// and its profile. Both poll their context once per chunk, and how the
// stream is cut into chunks never changes the profile.
package profile

import (
	"sort"

	"perfclone/internal/isa"
)

// DepBuckets are the dependency-distance histogram bucket upper bounds
// (inclusive), per Section 3.1.3: 1, 2, 4, 6, 8, 16, 32, and >32.
var DepBuckets = []int{1, 2, 4, 6, 8, 16, 32}

// NumDepBuckets is len(DepBuckets)+1 (the last bucket is >32).
const NumDepBuckets = 8

// DepBucket maps a distance to its bucket index.
func DepBucket(dist uint64) int {
	for i, ub := range DepBuckets {
		if dist <= uint64(ub) {
			return i
		}
	}
	return NumDepBuckets - 1
}

// TermKind classifies how a basic block ends — structural information the
// clone generator preserves so the synthetic control-flow population
// (conditional branches vs. jumps vs. fall-throughs) matches the original.
type TermKind uint8

// Terminator kinds.
const (
	TermFall TermKind = iota
	TermBranch
	TermJump
	TermHalt
)

// NodeKey identifies an SFG node: a basic block in the context of its
// dynamic predecessor block (Section 3.1.1 measures attributes per unique
// (predecessor, successor) pair). Prev is -1 for the entry context.
type NodeKey struct {
	Prev  int `json:"prev"`
	Block int `json:"block"`
}

// Node is one statistical-flow-graph node with its attribute profiles.
type Node struct {
	Key NodeKey `json:"key"`
	// Count is how many times this (predecessor, block) instance executed.
	Count uint64 `json:"count"`
	// Size is the static instruction count of the block.
	Size int `json:"size"`
	// Term is how the block ends.
	Term TermKind `json:"term"`
	// ClassCounts is the dynamic instruction-class histogram accumulated
	// over all executions of this node.
	ClassCounts [isa.NumClasses]uint64 `json:"classCounts"`
	// DepDist is the dependency-distance histogram for register reads
	// executed inside this node.
	DepDist [NumDepBuckets]uint64 `json:"depDist"`
	// Succ counts transitions to successor blocks.
	Succ map[int]uint64 `json:"succ"`
}

// StaticRef identifies a static instruction.
type StaticRef struct {
	Block int `json:"block"`
	Index int `json:"index"`
}

// MemStat profiles one static load or store (Section 3.1.4).
type MemStat struct {
	Ref StaticRef `json:"ref"`
	// Op is the opcode (access width and direction follow from it).
	Op isa.Op `json:"op"`
	// Count is the number of dynamic accesses.
	Count uint64 `json:"count"`
	// DominantStride is the most frequent address delta between
	// consecutive accesses of this static instruction.
	DominantStride int64 `json:"dominantStride"`
	// DominantCount is how many dynamic strides equalled DominantStride.
	DominantCount uint64 `json:"dominantCount"`
	// FirstAddr is the first address touched, used to place the clone's
	// stream and to bound footprints.
	FirstAddr uint64 `json:"firstAddr"`
	// MeanStreamLen is the average run length of consecutive accesses
	// with the dominant stride before the pattern breaks.
	MeanStreamLen float64 `json:"meanStreamLen"`
	// MinAddr and MaxAddr bound the addresses touched; their difference
	// is the instruction's data footprint, which sizes the clone's
	// stream region and reset period (step 11 of the algorithm).
	MinAddr uint64 `json:"minAddr"`
	MaxAddr uint64 `json:"maxAddr"`
	// strideHist and stream-tracking state (profiling only).
	strideHist map[int64]uint64
	lastAddr   uint64
	lastStride int64
	seenFirst  bool
	runValid   bool
	runLen     uint64
	runs       uint64
	runTotal   uint64
}

// BranchStat profiles one static conditional branch (Section 3.1.5).
type BranchStat struct {
	Ref StaticRef `json:"ref"`
	// Count is the number of dynamic executions.
	Count uint64 `json:"count"`
	// Taken is the number of taken executions.
	Taken uint64 `json:"taken"`
	// Transitions counts direction changes between consecutive
	// executions.
	Transitions uint64 `json:"transitions"`
	lastDir     bool
	seen        bool
}

// record updates a BranchStat with the next execution's direction.
func (bs *BranchStat) record(taken bool) {
	bs.Count++
	if taken {
		bs.Taken++
	}
	if bs.seen && bs.lastDir != taken {
		bs.Transitions++
	}
	bs.lastDir = taken
	bs.seen = true
}

// TakenRate is the fraction of executions that were taken.
func (bs *BranchStat) TakenRate() float64 {
	if bs.Count == 0 {
		return 0
	}
	return float64(bs.Taken) / float64(bs.Count)
}

// TransitionRate is the fraction of executions that switched direction
// relative to the previous execution (Haungs et al.).
func (bs *BranchStat) TransitionRate() float64 {
	if bs.Count <= 1 {
		return 0
	}
	return float64(bs.Transitions) / float64(bs.Count-1)
}

// Profile is the complete microarchitecture-independent characterization
// of one program run — the "workload profile" box of Figure 1.
type Profile struct {
	Name       string `json:"name"`
	TotalInsts uint64 `json:"totalInsts"`
	// Nodes is the statistical flow graph.
	Nodes map[NodeKey]*Node `json:"-"`
	// NodeList is Nodes in deterministic order (for serialization and
	// deterministic synthesis).
	NodeList []*Node `json:"nodes"`
	// Mem maps static memory instructions to their stride profiles.
	Mem map[StaticRef]*MemStat `json:"-"`
	// MemList is Mem in deterministic order.
	MemList []*MemStat `json:"mem"`
	// Branches maps static conditional branches to their statistics.
	Branches map[StaticRef]*BranchStat `json:"-"`
	// BranchList is Branches in deterministic order.
	BranchList []*BranchStat `json:"branches"`
	// GlobalMix is the overall dynamic instruction-class histogram.
	GlobalMix [isa.NumClasses]uint64 `json:"globalMix"`
	// GlobalDepDist is the overall dependency-distance histogram.
	GlobalDepDist [NumDepBuckets]uint64 `json:"globalDepDist"`
}

// StrideCoverage returns the fraction of dynamic memory references that
// follow their static instruction's single dominant stride — the Figure 3
// metric.
func (p *Profile) StrideCoverage() float64 {
	var dom, tot uint64
	for _, m := range p.MemList {
		// The first access of a static op has no stride; count strides
		// out of Count-1 transitions plus the first access as covered
		// (it defines the stream start).
		if m.Count == 0 {
			continue
		}
		tot += m.Count - 1
		dom += m.DominantCount
	}
	if tot == 0 {
		return 1
	}
	return float64(dom) / float64(tot)
}

// UniqueStreams is the number of distinct static memory instructions with
// at least one access — each is modeled as one stream in the clone
// (Section 5.1 reports susan needing 66 versus an average of 18).
func (p *Profile) UniqueStreams() int {
	n := 0
	for _, m := range p.MemList {
		if m.Count > 0 {
			n++
		}
	}
	return n
}

// MeanStreamLen is the mean stream run length across all static memory
// instructions, weighted equally per instruction (Section 3.1.4).
func (p *Profile) MeanStreamLen() float64 {
	var sum float64
	n := 0
	for _, m := range p.MemList {
		if m.Count > 0 {
			sum += m.MeanStreamLen
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// GlobalMixFractions returns the overall instruction mix as fractions.
func (p *Profile) GlobalMixFractions() [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	var tot uint64
	for _, c := range p.GlobalMix {
		tot += c
	}
	if tot == 0 {
		return out
	}
	for i, c := range p.GlobalMix {
		out[i] = float64(c) / float64(tot)
	}
	return out
}

// DefaultMaxInsts is the profiling budget every tool uses by default.
// The store keys profiles by budget, so tools share stored profiles only
// while they agree on it.
const DefaultMaxInsts = 1_000_000

// Options control profiling.
type Options struct {
	// MaxInsts bounds the profiled dynamic instruction count
	// (0 = run to halt).
	MaxInsts uint64
	// PerBlockNodes collapses the SFG to one node per basic block
	// (ignoring predecessor context). The paper argues per-(pred,succ)
	// context improves accuracy; this switch exists for the ablation.
	PerBlockNodes bool
}

// Span is the byte range this instruction's accesses cover.
func (ms *MemStat) Span() uint64 {
	return ms.MaxAddr - ms.MinAddr + uint64(ms.Op.MemBytes())
}

// termKind classifies a block terminator instruction.
func termKind(t *isa.Inst) TermKind {
	switch {
	case t == nil:
		return TermFall
	case t.Op.IsBranch():
		return TermBranch
	case t.Op == isa.OpJmp:
		return TermJump
	case t.Op == isa.OpHalt:
		return TermHalt
	default:
		return TermFall
	}
}

// record updates a MemStat with the next access address.
func (ms *MemStat) record(addr uint64) {
	ms.Count++
	if !ms.seenFirst {
		ms.seenFirst = true
		ms.FirstAddr = addr
		ms.lastAddr = addr
		ms.MinAddr, ms.MaxAddr = addr, addr
		ms.runLen = 1
		return
	}
	if addr < ms.MinAddr {
		ms.MinAddr = addr
	}
	if addr > ms.MaxAddr {
		ms.MaxAddr = addr
	}
	stride := int64(addr) - int64(ms.lastAddr)
	ms.lastAddr = addr
	// Stream runs: a run is a maximal sequence of accesses at one
	// stride. A run of r accesses holds r-1 strides, which closeRun adds
	// to the stride histogram in one step.
	if ms.runValid && stride == ms.lastStride {
		ms.runLen++
		return
	}
	if ms.runValid {
		ms.closeRun()
	}
	ms.runValid = true
	ms.lastStride = stride
	ms.runLen = 2
}

// closeRun folds the current run into the stride histogram and the
// stream-length statistics. Isolated break strides (stream resets,
// pointer jumps) are not runs; only runs of at least three accesses
// count toward the mean stream length.
func (ms *MemStat) closeRun() {
	ms.strideHist[ms.lastStride] += ms.runLen - 1
	if ms.runLen >= 3 {
		ms.runs++
		ms.runTotal += ms.runLen
	}
}

// finalize computes derived statistics and deterministic orderings.
func (pr *Profile) finalize() {
	for _, ms := range pr.Mem {
		// Close the trailing run, then clear the run-tracking state so a
		// second finalize (e.g. a defensive re-finalize) cannot fold the
		// same trailing run into the statistics twice.
		if ms.runValid {
			ms.closeRun()
			ms.runValid = false
			ms.runLen = 0
		}
		var bestS int64
		var bestC uint64
		// Deterministic tie-break: smallest stride wins.
		strides := make([]int64, 0, len(ms.strideHist))
		for s := range ms.strideHist {
			strides = append(strides, s)
		}
		sort.Slice(strides, func(i, j int) bool { return strides[i] < strides[j] })
		for _, s := range strides {
			if c := ms.strideHist[s]; c > bestC {
				bestS, bestC = s, c
			}
		}
		ms.DominantStride = bestS
		ms.DominantCount = bestC
		if ms.runs > 0 {
			ms.MeanStreamLen = float64(ms.runTotal) / float64(ms.runs)
		} else {
			ms.MeanStreamLen = 1
		}
	}
	// A profiling budget that expires on a block's final instruction can
	// record an edge into a block that never executed (no SFG node).
	// Prune such truncation edges so every successor resolves — the
	// invariant Validate enforces at the load boundary.
	blocks := make(map[int]bool, len(pr.Nodes))
	for k := range pr.Nodes {
		blocks[k.Block] = true
	}
	for _, n := range pr.Nodes {
		for s := range n.Succ {
			if !blocks[s] {
				delete(n.Succ, s)
			}
		}
	}
	pr.NodeList = make([]*Node, 0, len(pr.Nodes))
	for _, n := range pr.Nodes {
		pr.NodeList = append(pr.NodeList, n)
	}
	sort.Slice(pr.NodeList, func(i, j int) bool {
		a, b := pr.NodeList[i].Key, pr.NodeList[j].Key
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Prev < b.Prev
	})
	pr.MemList = make([]*MemStat, 0, len(pr.Mem))
	for _, m := range pr.Mem {
		pr.MemList = append(pr.MemList, m)
	}
	sort.Slice(pr.MemList, func(i, j int) bool {
		a, b := pr.MemList[i].Ref, pr.MemList[j].Ref
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Index < b.Index
	})
	pr.BranchList = make([]*BranchStat, 0, len(pr.Branches))
	for _, bs := range pr.Branches {
		pr.BranchList = append(pr.BranchList, bs)
	}
	sort.Slice(pr.BranchList, func(i, j int) bool {
		a, b := pr.BranchList[i].Ref, pr.BranchList[j].Ref
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Index < b.Index
	})
}
