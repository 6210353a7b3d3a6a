// Package statsim implements classical statistical simulation — the prior
// work (Oskin et al., Eeckhout et al., Nussbaum et al.; Section 2 of the
// paper) that performance cloning builds on. A short synthetic instruction
// trace is generated from the statistical profile and timed on the
// detailed pipeline model; locality and predictability are injected as
// *probabilities* measured at one configuration, which is precisely the
// microarchitecture dependence the paper's clones remove.
//
// The package exists both as a substrate reproduction and as a comparison
// point: statistical simulation estimates one design point quickly, while
// a clone is a portable program that tracks many design points.
package statsim

import (
	"context"
	"fmt"
	"sort"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/uarch"
)

// Rates are the microarchitecture-dependent statistics a statistical
// profile carries (measured at one training configuration).
type Rates struct {
	// L1DMiss and L2Miss are data-side miss probabilities per access.
	L1DMiss float64
	L2Miss  float64
	// Mispred is the conditional-branch misprediction probability.
	Mispred float64
}

// MeasureRates replays the first maxInsts instructions of a captured
// trace (0 = the whole trace) through a Meter over the configuration's
// data caches (L1D, then L2 on an L1D miss) and its predictor, in one
// walk. No functional execution is involved. The walk polls ctx and
// ticks any supervision heartbeat it carries once per chunk.
func MeasureRates(ctx context.Context, t *dyntrace.Trace, cfg uarch.Config, maxInsts uint64) (Rates, error) {
	m := NewMeter([]cache.Config{cfg.L1D, cfg.L2}, []string{string(cfg.Predictor)})
	if err := m.Walk(ctx, t, maxInsts); err != nil {
		return Rates{}, err
	}
	return Rates{
		L1DMiss: m.Cache(0).MissRate(),
		L2Miss:  m.Cache(1).MissRate(),
		Mispred: m.MispredRate(0),
	}, nil
}

// Options configure an estimate.
type Options struct {
	// TraceLen is the synthetic trace length (default 1M, the length the
	// statistical-simulation literature reports as sufficient).
	TraceLen uint64
}

// Estimate generates a synthetic trace from the profile with the given
// dependent rates and times it on cfg, returning pipeline statistics.
// The timing walk polls ctx once per chunk (uarch.RunTrace), so a
// cancelled estimate returns the context's cause promptly.
func Estimate(ctx context.Context, prof *profile.Profile, rates Rates, cfg uarch.Config, opts Options) (uarch.Stats, error) {
	if len(prof.NodeList) == 0 {
		return uarch.Stats{}, fmt.Errorf("statsim: profile %q has no SFG nodes", prof.Name)
	}
	if opts.TraceLen == 0 {
		opts.TraceLen = 1_000_000
	}
	g := newTraceGen(prof, rates, cfg)
	return uarch.RunTrace(ctx, cfg, uarch.Limits{}, opts.TraceLen, g.next)
}

// traceGen synthesizes the instruction stream.
type traceGen struct {
	prof  *profile.Profile
	rates Rates
	cfg   uarch.Config
	rng   uint64

	node    *profile.Node
	slot    int
	classes []isa.Class

	// Address machinery: three regions sized so that accesses hit L1,
	// hit L2, or miss to memory, selected per the probabilities.
	hitLine   uint64
	l2Region  uint64
	l2Size    uint64
	memRegion uint64
	memOff    uint64
	l2Off     uint64

	// Register allocation mirrors the clone generator's round-robin
	// pools so dependency distances are realized.
	intNext int
	fpNext  int
	pcOff   uint64
}

const (
	tgIntPool0 = 1
	tgIntPoolN = 16
	tgFPPoolN  = 16
)

// newTraceGen seeds every generator alike, so an estimate depends only
// on its inputs.
func newTraceGen(prof *profile.Profile, rates Rates, cfg uarch.Config) *traceGen {
	g := &traceGen{prof: prof, rates: rates, cfg: cfg, rng: 1}
	// Region layout: one hot line; an L2-resident region larger than L1D
	// but smaller than L2; a memory region far larger than L2.
	g.hitLine = 64
	g.l2Region = 1 << 20
	g.l2Size = uint64(cfg.L2.Size) / 2
	g.memRegion = 1 << 24
	g.pickNode()
	return g
}

func (g *traceGen) rand() uint64 {
	g.rng ^= g.rng >> 12
	g.rng ^= g.rng << 25
	g.rng ^= g.rng >> 27
	return g.rng * 0x2545f4914f6cdd1d
}

func (g *traceGen) chance(p float64) bool {
	return float64(g.rand()%1_000_000) < p*1_000_000
}

// pickNode samples an SFG node by occurrence frequency (the statistical-
// simulation trace construction).
func (g *traceGen) pickNode() {
	var total uint64
	for _, n := range g.prof.NodeList {
		total += n.Count
	}
	x := g.rand() % total
	for _, n := range g.prof.NodeList {
		if x < n.Count {
			g.setNode(n)
			return
		}
		x -= n.Count
	}
	g.setNode(g.prof.NodeList[len(g.prof.NodeList)-1])
}

func (g *traceGen) setNode(n *profile.Node) {
	g.node = n
	g.slot = 0
	g.classes = g.classes[:0]
	// The node's dynamic class mix, apportioned over its size, with the
	// terminator last.
	var tot uint64
	for c := isa.ClassIntALU; c <= isa.ClassStore; c++ {
		tot += n.ClassCounts[c]
	}
	body := n.Size - 1
	if body < 1 {
		body = 1
	}
	for i := 0; i < body; i++ {
		g.classes = append(g.classes, g.sampleClass(tot))
	}
	g.classes = append(g.classes, isa.ClassBranch)
}

func (g *traceGen) sampleClass(tot uint64) isa.Class {
	if tot == 0 {
		return isa.ClassIntALU
	}
	x := g.rand() % tot
	for c := isa.ClassIntALU; c <= isa.ClassStore; c++ {
		if x < g.node.ClassCounts[c] {
			return c
		}
		x -= g.node.ClassCounts[c]
	}
	return isa.ClassIntALU
}

// address picks an effective address whose hierarchy outcome follows the
// measured miss probabilities.
func (g *traceGen) address() uint64 {
	if g.chance(g.rates.L1DMiss) {
		if g.chance(g.rates.L2Miss) {
			// Miss all the way: stride one line through a huge region.
			g.memOff = (g.memOff + 64) % g.memRegion
			return g.l2Region + g.l2Size + g.memOff
		}
		// L1 miss, L2 hit: walk a region bigger than L1 but L2-resident.
		g.l2Off = (g.l2Off + 64) % g.l2Size
		return g.l2Region + g.l2Off
	}
	return g.hitLine // always-hot line
}

// depDist samples a dependency distance from the node's distribution.
func (g *traceGen) depDist() int {
	var tot uint64
	for _, c := range g.node.DepDist {
		tot += c
	}
	if tot == 0 {
		return 1
	}
	x := g.rand() % tot
	bucket := profile.NumDepBuckets - 1
	for i, c := range g.node.DepDist {
		if x < c {
			bucket = i
			break
		}
		x -= c
	}
	d := 33
	if bucket < len(profile.DepBuckets) {
		d = profile.DepBuckets[bucket]
	}
	if d > tgIntPoolN {
		d = tgIntPoolN
	}
	return d
}

func (g *traceGen) intSrc(dist int) isa.Reg {
	idx := (g.intNext - dist + 2*tgIntPoolN) % tgIntPoolN
	return isa.IntReg(tgIntPool0 + idx)
}

func (g *traceGen) intDest() isa.Reg {
	r := isa.IntReg(tgIntPool0 + g.intNext)
	g.intNext = (g.intNext + 1) % tgIntPoolN
	return r
}

func (g *traceGen) fpSrc(dist int) isa.Reg {
	idx := (g.fpNext - dist + 2*tgFPPoolN) % tgFPPoolN
	return isa.FPReg(idx)
}

func (g *traceGen) fpDest() isa.Reg {
	r := isa.FPReg(g.fpNext)
	g.fpNext = (g.fpNext + 1) % tgFPPoolN
	return r
}

// next produces the i'th synthetic instruction.
func (g *traceGen) next(i uint64) uarch.TraceInst {
	if g.slot >= len(g.classes) {
		g.advance()
	}
	cls := g.classes[g.slot]
	g.slot++
	// Synthetic text loops within an L1I-resident window, as the hot
	// loops of the profiled embedded programs do.
	g.pcOff = (g.pcOff + 8) % (1024 * 8)
	ti := uarch.TraceInst{PC: 1<<41 + g.pcOff, Class: cls}
	switch cls {
	case isa.ClassLoad:
		ti.Addr = g.address()
		ti.Dest = g.intDest()
		ti.Src1 = g.intSrc(g.depDist())
	case isa.ClassStore:
		ti.Addr = g.address()
		ti.Src1 = g.intSrc(g.depDist())
		ti.Src2 = g.intSrc(g.depDist())
	case isa.ClassBranch:
		ti.Branch = true
		// Inject the measured misprediction probability: branch
		// directions are iid with P(taken) equal to the mispredict
		// rate, so any predictor converges to that miss rate; PCs
		// rotate over a small set so tables train quickly.
		ti.PC = 1<<41 + uint64(g.node.Key.Block%64)*8
		ti.Taken = g.chance(g.rates.Mispred)
		ti.Src1 = g.intSrc(g.depDist())
		ti.Src2 = g.intSrc(g.depDist())
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		ti.Dest = g.fpDest()
		ti.Src1 = g.fpSrc(g.depDist())
		ti.Src2 = g.fpSrc(g.depDist())
	default:
		ti.Dest = g.intDest()
		ti.Src1 = g.intSrc(g.depDist())
		ti.Src2 = g.intSrc(g.depDist())
	}
	return ti
}

// advance follows the SFG to the next node (successor CDF, re-seeding at
// sinks), as the statistical flow graph walk prescribes.
func (g *traceGen) advance() {
	n := g.node
	if len(n.Succ) == 0 {
		g.pickNode()
		return
	}
	succs := make([]int, 0, len(n.Succ))
	for s := range n.Succ {
		succs = append(succs, s)
	}
	sort.Ints(succs)
	var tot uint64
	for _, s := range succs {
		tot += n.Succ[s]
	}
	x := g.rand() % tot
	for _, nb := range succs {
		c := n.Succ[nb]
		if x < c {
			key := profile.NodeKey{Prev: n.Key.Block, Block: nb}
			if nxt := g.prof.Nodes[key]; nxt != nil {
				g.setNode(nxt)
				return
			}
			// Context not profiled: any node of that block.
			for _, cand := range g.prof.NodeList {
				if cand.Key.Block == nb {
					g.setNode(cand)
					return
				}
			}
			g.pickNode()
			return
		}
		x -= c
	}
	g.pickNode()
}
