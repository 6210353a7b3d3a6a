// Package synth is the paper's primary contribution: generation of a
// synthetic benchmark clone from a microarchitecture-independent workload
// profile (Section 3.2, steps 1-12).
//
// The clone is a new program — different code, different data — whose
// statistical flow graph, instruction mix, dependency distances, memory
// stride streams, and branch transition rates match the profiled original,
// so that its performance and power track the original's across cache,
// branch predictor and pipeline configurations.
package synth

import (
	"context"
	"fmt"
	"math"
	"sort"

	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
)

// Config controls clone generation.
type Config struct {
	// TargetBlocks is the number of basic-block instances in the clone's
	// loop body (step 9's target). Default 150.
	TargetBlocks int
	// Iterations is the trip count of the big outer loop (step 11).
	// Default: enough iterations to match the profiled dynamic
	// instruction count, capped at 2M instructions.
	Iterations int
	// Seed drives the generator's deterministic PRNG (step 1's random
	// numbers). Default 1.
	Seed uint64
	// TakenRateOnlyBranches disables the transition-rate model and
	// matches only per-branch taken rates (the strawman of Section
	// 3.1.5) — for the branch-model ablation.
	TakenRateOnlyBranches bool
	// TestBreakDepDist disables dependency-distance sampling (every
	// sampled distance collapses to 1) — a deliberately broken generator
	// used by tests to prove the fidelity gate catches regressions.
	// Never set outside tests.
	TestBreakDepDist bool
}

func (c Config) withDefaults(p *profile.Profile) Config {
	if c.TargetBlocks <= 0 {
		// Aim for a ~1200-instruction loop body: small enough to be
		// L1I-resident like the originals' hot loops, large enough to
		// cover the SFG node distribution and amortize the loop
		// epilogue. Workloads with tiny blocks get more of them.
		var insts, cnt uint64
		for _, n := range p.NodeList {
			insts += n.Count * uint64(n.Size)
			cnt += n.Count
		}
		avg := 4.0
		if cnt > 0 {
			avg = float64(insts) / float64(cnt)
		}
		c.TargetBlocks = int(1200 / avg)
		if c.TargetBlocks < 16 {
			c.TargetBlocks = 16
		}
		if c.TargetBlocks > 512 {
			c.TargetBlocks = 512
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Clone bundles the generated program with the synthesis metadata that the
// C code generator and the experiment harness report on.
type Clone struct {
	// Program is the runnable synthetic benchmark.
	Program *prog.Program
	// Pools describes the memory stream pools backing the clone's loads
	// and stores.
	Pools []StreamPool
	// BodyInsts is the static instruction count of one loop iteration.
	BodyInsts int
	// Iterations is the outer-loop trip count baked into the program.
	Iterations int
	// SourceProfile names the profile the clone was generated from.
	SourceProfile string
	// NodeInstances maps each source SFG node to the number of chain-
	// block instances realizing it. Every chain block executes exactly
	// once per outer iteration, so these counts are the clone's realized
	// SFG block-frequency distribution — what the fidelity gate compares
	// against the profiled node counts.
	NodeInstances map[profile.NodeKey]int
	// RefStrides maps each profiled static memory instruction to the
	// stride of the stream pool realizing it. When pools overflow the
	// pointer registers and merge, a ref can land in a pool with a
	// different stride; the fidelity gate measures how much dynamic
	// access weight kept its exact dominant stride.
	RefStrides map[profile.StaticRef]int64
}

// StreamPool is one stride-sharing group of static memory instructions
// (Section 3.1.4's stream model). All members advance through memory with
// the same stride via a shared pointer register; each member owns a fixed
// displacement.
type StreamPool struct {
	// Stride is the profiled per-execution address delta of the member
	// instructions.
	Stride int64
	// Advance is the per-iteration pointer delta (Stride scaled by the
	// average member instance count).
	Advance int64
	// ResetIters is the number of iterations after which the pointer
	// rewinds to the stream start (step 11: footprint control).
	ResetIters int
	// Members is the number of static memory instructions in the pool.
	Members int
	// RegionBytes is the memory the pool walks.
	RegionBytes uint64
	// Reg is the architected pointer register.
	Reg isa.Reg
}

// Register plan for the generated program. The zero register is hardwired;
// everything else is allocated statically here.
const (
	regIter       = 1 // outer-loop iteration counter
	regBound      = 2 // outer-loop trip count
	regDir0       = 3 // first branch-direction register
	numDirRegs    = 9
	regLCG        = 12 // software PRNG state for random direction waves
	regScratch    = 13 // epilogue scratch
	regScratch2   = 14 // second epilogue scratch (windowed pools)
	intPool0      = 15 // first integer dependence-pool register
	intPoolN      = 7
	streamReg0    = intPool0 + intPoolN // r22
	numStreamRegs = 32 - streamReg0     // r22..r31
	fpPoolN       = 16                  // f0..f15
)

// dirPattern describes one precomputed direction register: a 0/1 wave
// recomputed once per loop iteration. `taken` and `trans` are the taken
// and transition rates a branch reading the register with Bne exhibits;
// Beq gives (1-taken, trans). Periodic waves are learnable by history
// predictors (loop behaviour); LCG-threshold waves are not (data-
// dependent behaviour). The profiled (taken, transition) pair selects
// between them: loop-like branches sit near t = 2(1-d), random-like
// branches near t = 2d(1-d) — a microarchitecture-independent signature.
type dirPattern struct {
	kind  dirKind
	param int64 // period mask (dirZeroEq) or 16-bit threshold (dirRandom)
	taken float64
	trans float64
}

type dirKind int

const (
	dirToggle dirKind = iota // iter & 1: alternates every iteration
	dirZeroEq                // (iter & param) == 0: trip-(param+1) loop wave
	dirRandom                // (lcg16 < param): iid Bernoulli wave
)

// dirPatterns are the nine precomputed direction waves.
var dirPatterns = [numDirRegs]dirPattern{
	{dirToggle, 0, 0.5, 1.0},
	{dirZeroEq, 3, 0.25, 0.5},        // period 4 loop
	{dirZeroEq, 7, 0.125, 0.25},      // period 8 loop
	{dirZeroEq, 15, 0.0625, 0.125},   // period 16 loop
	{dirZeroEq, 31, 0.03125, 0.0625}, // period 32 loop
	{dirZeroEq, 63, 1.0 / 64, 1.0 / 32},
	{dirRandom, 32768, 0.5, 0.5},      // random 50 %
	{dirRandom, 16384, 0.25, 0.375},   // random 25 %
	{dirRandom, 8192, 0.125, 0.21875}, // random 12.5 %
}

// GenerateContext builds a synthetic clone from a profile, following the
// 12-step algorithm of Section 3.2. It polls ctx between its phases
// (validate → pools → chain → emit), returning the context's
// cancellation cause, and ticks any supervision heartbeat carried by ctx
// at each boundary so a supervised synthesis task stays live under a
// watchdog. Cancellation never yields a partial clone — the result is
// either complete or nil.
func GenerateContext(ctx context.Context, p *profile.Profile, cfg Config) (*Clone, error) {
	phase := func() error {
		if err := supervise.Cause(ctx); err != nil {
			return err
		}
		supervise.Beat(ctx)
		return nil
	}
	if err := phase(); err != nil {
		return nil, err
	}
	// Sanitize at the boundary: a malformed profile (hand-edited JSON, a
	// corrupt artifact, a fuzzer input) is an error here, never a panic
	// inside the generator.
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	cfg = cfg.withDefaults(p)
	g := &generator{prof: p, cfg: cfg, rng: rng{s: cfg.Seed}}
	if err := phase(); err != nil {
		return nil, err
	}
	g.buildPools()
	if err := phase(); err != nil {
		return nil, err
	}
	chain := g.buildChain()
	if err := phase(); err != nil {
		return nil, err
	}
	clone, err := g.emit(chain)
	if err != nil {
		return nil, err
	}
	clone.NodeInstances = make(map[profile.NodeKey]int, len(p.NodeList))
	for i := range chain {
		clone.NodeInstances[chain[i].node.Key]++
	}
	clone.RefStrides = make(map[profile.StaticRef]int64, len(g.memPool))
	for ref, pi := range g.memPool {
		clone.RefStrides[ref] = g.pools[pi].stride
	}
	return clone, nil
}

// generator holds synthesis state.
type generator struct {
	prof     *profile.Profile
	cfg      Config
	rng      rng
	pools    []*poolState
	clusters []memCluster
	// memPool maps each original static memory instruction to its pool.
	memPool map[profile.StaticRef]int
}

type poolState struct {
	stride  int64
	advance int64  // per-iteration pointer delta (stride × instances/ref)
	span    uint64 // pool footprint in bytes (max member span)
	cluster int    // which address cluster ("array") the pool walks
	members int
	count   uint64 // dynamic accesses represented
	reg     isa.Reg
	// Temporal reuse: the dominant member re-walks each windowBytes-
	// sized window rewalkK times before moving on (gsm re-reads each
	// frame once per autocorrelation lag, SHA re-reads its message
	// schedule once per round group, and so on).
	rewalkK     int
	windowBytes int64
	domCount    uint64 // heaviest member's access count
	resetIts    int
}

// memCluster is a maximal group of static memory instructions whose
// profiled address intervals overlap — the clone's reconstruction of "one
// array". Pools inside a cluster share its memory region, so refs that
// walked the same data structure in the original share footprint in the
// clone (union, not sum).
type memCluster struct {
	min, max uint64 // original address interval
}

func (c memCluster) span() uint64 { return c.max - c.min }

// chainInst is one planned instruction of the loop body.
type chainInst struct {
	class    isa.Class
	memRef   profile.StaticRef // valid when class is load/store
	memOp    isa.Op
	depDist  int // desired producer distance in pool writes
	depDist2 int
}

// chainBlock is one planned basic block of the loop body.
type chainBlock struct {
	node  *profile.Node
	insts []chainInst
	// branch realization: the direction-register pattern (for brDir).
	brKind   brKind
	brDirReg int  // index into the direction registers
	brInvert bool // true: Beq (taken when wave is 0); false: Bne
}

type brKind int

const (
	brAlways brKind = iota // constant direction (taken)
	brNever                // constant direction (not taken)
	brDir                  // direction follows a precomputed periodic wave
	brJump                 // original block ended in an unconditional jump
	brFall                 // original block fell through (no terminator)
)

// buildPools reconstructs the original's data structures and stream pools
// (Section 3.1.4). Static memory instructions whose profiled address
// intervals overlap are clustered into one "array"; within a cluster,
// instructions sharing a dominant stride form one stream pool with a
// shared pointer register. The pool count is capped by the available
// pointer registers; overflow pools merge into the nearest (same cluster
// first, then stride distance).
func (g *generator) buildPools() {
	// Interval clustering over live refs.
	type refInfo struct {
		m       *profile.MemStat
		cluster int
	}
	var refs []refInfo
	for _, m := range g.prof.MemList {
		if m.Count > 0 {
			refs = append(refs, refInfo{m: m})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].m.MinAddr != refs[j].m.MinAddr {
			return refs[i].m.MinAddr < refs[j].m.MinAddr
		}
		return refs[i].m.MaxAddr < refs[j].m.MaxAddr
	})
	var clusters []memCluster
	for i := range refs {
		m := refs[i].m
		hi := m.MaxAddr + uint64(m.Op.MemBytes())
		if len(clusters) > 0 && m.MinAddr <= clusters[len(clusters)-1].max+64 {
			c := &clusters[len(clusters)-1]
			if hi > c.max {
				c.max = hi
			}
			refs[i].cluster = len(clusters) - 1
			continue
		}
		clusters = append(clusters, memCluster{min: m.MinAddr, max: hi})
		refs[i].cluster = len(clusters) - 1
	}
	g.clusters = clusters

	// Pools keyed by (cluster, stride).
	type key struct {
		cluster int
		stride  int64
	}
	agg := map[key]*poolState{}
	refPoolKey := make(map[profile.StaticRef]key)
	for _, ri := range refs {
		k := key{ri.cluster, ri.m.DominantStride}
		ps := agg[k]
		if ps == nil {
			ps = &poolState{stride: ri.m.DominantStride, cluster: ri.cluster}
			agg[k] = ps
		}
		ps.members++
		ps.count += ri.m.Count
		if s := ri.m.Span(); s > ps.span {
			ps.span = s
		}
		if ri.m.Count > ps.domCount {
			ps.domCount = ri.m.Count
			ps.rewalkK, ps.windowBytes = reuseParams(ri.m)
		}
		refPoolKey[ri.m.Ref] = k
	}
	all := make([]*poolState, 0, len(agg))
	for _, ps := range agg {
		all = append(all, ps)
	}
	// Deterministic order: by represented dynamic accesses, descending.
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		if all[i].cluster != all[j].cluster {
			return all[i].cluster < all[j].cluster
		}
		return all[i].stride < all[j].stride
	})
	if len(all) > numStreamRegs {
		kept := all[:numStreamRegs]
		for _, extra := range all[numStreamRegs:] {
			best, bestScore := 0, math.MaxFloat64
			for i, ps := range kept {
				score := float64(strideDist(ps.stride, extra.stride))
				if ps.cluster != extra.cluster {
					// Prefer keeping refs inside their own array.
					score += 1 << 24
				}
				if score < bestScore {
					best, bestScore = i, score
				}
			}
			kept[best].members += extra.members
			kept[best].count += extra.count
			if extra.span > kept[best].span {
				kept[best].span = extra.span
			}
		}
		all = kept
	}
	for i, ps := range all {
		ps.reg = isa.IntReg(streamReg0 + i)
	}
	g.pools = all

	// Map each static op to its (possibly merged) pool.
	g.memPool = make(map[profile.StaticRef]int)
	for _, ri := range refs {
		k := refPoolKey[ri.m.Ref]
		best, bestScore := 0, math.MaxFloat64
		for i, ps := range g.pools {
			score := float64(strideDist(ps.stride, k.stride))
			if ps.cluster != k.cluster {
				score += 1 << 24
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		g.memPool[ri.m.Ref] = best
	}
}

// reuseParams derives a static memory instruction's temporal-reuse
// parameters: how many times it re-walks a window of its footprint
// (revisit factor = bytes swept ÷ footprint) and the window size (mean
// stream run length × stride). Both are microarchitecture-independent.
func reuseParams(m *profile.MemStat) (k int, window int64) {
	k = 1
	stride := abs64(m.DominantStride)
	if stride == 0 || m.Span() == 0 {
		return 1, int64(m.Span())
	}
	swept := float64(m.Count) * float64(stride)
	k = int(swept/float64(m.Span()) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > 1024 {
		k = 1024
	}
	window = int64(m.MeanStreamLen * float64(stride))
	if window < stride {
		window = stride
	}
	if window > int64(m.Span()) {
		window = int64(m.Span())
	}
	return k, window
}

func strideDist(a, b int64) int64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	// Sign disagreement is worse than magnitude distance.
	if (a < 0) != (b < 0) {
		d += 1 << 20
	}
	return d
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// buildChain performs steps 1-9: walk the SFG, instantiating one planned
// block per visit, decrementing node occurrences, and re-seeding from the
// cumulative distribution when a walk dead-ends.
func (g *generator) buildChain() []chainBlock {
	p := g.prof
	// Apportion the block budget across nodes by occurrence frequency
	// (largest remainder), so the finished chain reproduces the SFG's
	// node distribution exactly — a naive decrement-until-exhausted walk
	// gets trapped inside high-self-probability loop nodes.
	budget := apportionBudget(p.NodeList, g.cfg.TargetBlocks)
	remaining := make(map[profile.NodeKey]uint64, len(p.NodeList))
	for i, n := range p.NodeList {
		remaining[n.Key] = budget[i]
	}
	// seed picks a node by the remaining-occurrence CDF (step 1).
	seed := func() *profile.Node {
		var live uint64
		for _, n := range p.NodeList {
			live += remaining[n.Key]
		}
		if live == 0 {
			return nil
		}
		x := g.rng.next() % live
		for _, n := range p.NodeList {
			c := remaining[n.Key]
			if x < c {
				return n
			}
			x -= c
		}
		return p.NodeList[len(p.NodeList)-1]
	}

	chain := make([]chainBlock, 0, g.cfg.TargetBlocks)
	cur := seed()
	for cur != nil && len(chain) < g.cfg.TargetBlocks {
		chain = append(chain, g.planBlock(cur))
		if remaining[cur.Key] > 0 {
			remaining[cur.Key]-- // step 6
		}
		// Step 8: successor CDF.
		next := g.pickSuccessor(cur, remaining)
		if next == nil {
			next = seed()
		}
		cur = next
	}
	return chain
}

// apportionBudget splits target chain slots across nodes in proportion to
// their execution counts using the largest-remainder method.
func apportionBudget(nodes []*profile.Node, target int) []uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.Count
	}
	out := make([]uint64, len(nodes))
	if total == 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(nodes))
	assigned := 0
	for i, n := range nodes {
		exact := float64(target) * float64(n.Count) / float64(total)
		out[i] = uint64(exact)
		assigned += int(out[i])
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; assigned < target && k < len(rems); k++ {
		out[rems[k].idx]++
		assigned++
	}
	return out
}

// pickSuccessor samples an outgoing edge of cur and returns the successor
// node in cur's context, or nil when the walk must re-seed.
func (g *generator) pickSuccessor(cur *profile.Node, remaining map[profile.NodeKey]uint64) *profile.Node {
	if len(cur.Succ) == 0 {
		return nil
	}
	var tot uint64
	// Deterministic iteration order over successors.
	succs := make([]int, 0, len(cur.Succ))
	for s := range cur.Succ {
		succs = append(succs, s)
	}
	sort.Ints(succs)
	for _, s := range succs {
		tot += cur.Succ[s]
	}
	x := g.rng.next() % tot
	var nb int
	for _, s := range succs {
		c := cur.Succ[s]
		if x < c {
			nb = s
			break
		}
		x -= c
	}
	key := profile.NodeKey{Prev: cur.Key.Block, Block: nb}
	if n := g.prof.Nodes[key]; n != nil && remaining[n.Key] > 0 {
		return n
	}
	// Context collapsed (per-block ablation) or node exhausted: any live
	// node of that block.
	for _, n := range g.prof.NodeList {
		if n.Key.Block == nb && remaining[n.Key] > 0 {
			return n
		}
	}
	return nil
}

// planBlock performs steps 2-5 for one node: draw the instruction classes
// from the node's mix, keep the original's memory slots (they carry the
// stream assignments), sample dependency distances, and derive the branch
// pattern from the terminator's transition rate.
func (g *generator) planBlock(n *profile.Node) chainBlock {
	cb := chainBlock{node: n}
	g.planBranch(&cb)
	// Memory slots mirror the original block's static memory ops so that
	// stride streams map one-to-one (step 4).
	var memOps []profile.StaticRef
	for _, m := range g.prof.MemList {
		if m.Ref.Block == n.Key.Block {
			memOps = append(memOps, m.Ref)
		}
	}
	// The branch machinery (step 5) is charged against the block's
	// instruction budget so the clone's block sizes — and therefore its
	// overall mix — track the original's.
	body := n.Size - termInsts(cb.brKind) - branchOverhead(cb.brKind)
	if body < len(memOps) {
		body = len(memOps)
	}
	if body < 1 {
		body = 1
	}
	// Compute slots get classes by largest-remainder apportionment of
	// the node's dynamic compute mix — exact in expectation, no
	// sampling noise.
	classes := g.apportionCompute(n, body-len(memOps))
	mi, ci2 := 0, 0
	for i := 0; i < body; i++ {
		var ci chainInst
		if mi < len(memOps) && shouldPlaceMem(i, body, mi, len(memOps)) {
			ref := memOps[mi]
			ci.class = g.prof.Mem[ref].Op.Class()
			ci.memRef = ref
			ci.memOp = g.prof.Mem[ref].Op
			mi++
		} else if ci2 < len(classes) {
			ci.class = classes[ci2]
			ci2++
		} else {
			ci.class = isa.ClassIntALU
		}
		ci.depDist = g.sampleDepDist(n)
		ci.depDist2 = g.sampleDepDist(n)
		cb.insts = append(cb.insts, ci)
	}
	return cb
}

// shouldPlaceMem spreads the block's memory ops evenly over its body.
func shouldPlaceMem(i, body, placed, total int) bool {
	if total == 0 {
		return false
	}
	want := (i + 1) * total / body
	return placed < want || body-i <= total-placed
}

// apportionCompute distributes n compute slots across the arithmetic
// classes in proportion to the node's dynamic mix (largest remainder
// method), then shuffles the order deterministically.
func (g *generator) apportionCompute(node *profile.Node, n int) []isa.Class {
	if n <= 0 {
		return nil
	}
	var tot uint64
	for c := isa.ClassIntALU; c <= isa.ClassFPDiv; c++ {
		tot += node.ClassCounts[c]
	}
	out := make([]isa.Class, 0, n)
	if tot == 0 {
		for i := 0; i < n; i++ {
			out = append(out, isa.ClassIntALU)
		}
		return out
	}
	type share struct {
		c    isa.Class
		got  int
		frac float64
	}
	shares := make([]share, 0, 6)
	assigned := 0
	for c := isa.ClassIntALU; c <= isa.ClassFPDiv; c++ {
		exact := float64(n) * float64(node.ClassCounts[c]) / float64(tot)
		got := int(exact)
		assigned += got
		shares = append(shares, share{c, got, exact - float64(got)})
	}
	for assigned < n {
		best := 0
		for i := range shares {
			if shares[i].frac > shares[best].frac {
				best = i
			}
		}
		shares[best].got++
		shares[best].frac = -1
		assigned++
	}
	for _, s := range shares {
		for i := 0; i < s.got; i++ {
			out = append(out, s.c)
		}
	}
	// Deterministic Fisher-Yates shuffle so classes interleave.
	for i := len(out) - 1; i > 0; i-- {
		j := int(g.rng.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// sampleDepDist draws a dependency distance (in producer steps) from the
// node's distance distribution (step 3), clamped to what the register
// pool can realize (the paper's register assignment has the same bound).
func (g *generator) sampleDepDist(n *profile.Node) int {
	if g.cfg.TestBreakDepDist {
		return 1
	}
	var tot uint64
	for _, c := range n.DepDist {
		tot += c
	}
	if tot == 0 {
		return 1
	}
	x := g.rng.next() % tot
	bucket := profile.NumDepBuckets - 1
	for i, c := range n.DepDist {
		if x < c {
			bucket = i
			break
		}
		x -= c
	}
	var dist int
	if bucket < len(profile.DepBuckets) {
		dist = profile.DepBuckets[bucket]
	} else {
		dist = 48
	}
	if dist > intPoolN {
		dist = intPoolN
	}
	if dist < 1 {
		dist = 1
	}
	return dist
}

// planBranch derives the branch pattern for the block terminator
// (step 5). The transition rate and taken rate of the original block's
// branch select between a constant direction, a per-iteration toggle, and
// a duty-cycle pattern driven by a modulo of the iteration counter.
func (g *generator) planBranch(cb *chainBlock) {
	var bs *profile.BranchStat
	for _, cand := range g.prof.BranchList {
		if cand.Ref.Block == cb.node.Key.Block {
			bs = cand
			break
		}
	}
	if bs == nil || bs.Count == 0 {
		// The original block does not end in a conditional branch:
		// preserve its control kind (jump or fall-through) so the
		// clone's branch population matches the original's.
		if cb.node.Term == profile.TermJump {
			cb.brKind = brJump
		} else {
			cb.brKind = brFall
		}
		return
	}
	taken := bs.TakenRate()
	trans := bs.TransitionRate()
	if g.cfg.TakenRateOnlyBranches {
		// Ablation: ignore the transition rate; the strawman model of
		// Section 3.1.5 that the paper argues is insufficient.
		trans = -1
	}
	// First decide the behaviour family from the microarchitecture-
	// independent (taken, transition) signature. A loop-style branch
	// (runs of one direction broken by regular exits) sits on the curve
	// t = 2·min(d, 1-d); an iid data-dependent branch sits on
	// t = 2d(1-d). Loop-style branches are realized with periodic waves
	// (learnable by history predictors, as real loop branches are);
	// data-dependent ones with PRNG-threshold waves (hard to predict).
	loopT := 2 * taken
	if taken > 0.5 {
		loopT = 2 * (1 - taken)
	}
	randT := 2 * taken * (1 - taken)
	wantRandom := absF(trans-randT) < absF(trans-loopT)
	if g.cfg.TakenRateOnlyBranches {
		wantRandom = true // the strawman has no transition information
	}

	bestKind, bestReg, bestInv := brAlways, 0, false
	bestCost := patternCost(taken, trans, 1, 0)
	if c := patternCost(taken, trans, 0, 0); c < bestCost {
		bestKind, bestCost = brNever, c
	}
	for i, pat := range dirPatterns {
		if (pat.kind == dirRandom) != wantRandom {
			continue
		}
		if c := patternCost(taken, trans, pat.taken, pat.trans); c < bestCost {
			bestKind, bestReg, bestInv, bestCost = brDir, i, false, c
		}
		if c := patternCost(taken, trans, 1-pat.taken, pat.trans); c < bestCost {
			bestKind, bestReg, bestInv, bestCost = brDir, i, true, c
		}
	}
	cb.brKind = bestKind
	cb.brDirReg = bestReg
	cb.brInvert = bestInv
}

// patternCost scores how well a candidate (taken, transition) pair matches
// the profiled branch behaviour. A negative wantTrans means "don't care"
// (the taken-rate-only ablation).
func patternCost(wantTaken, wantTrans, taken, trans float64) float64 {
	c := absF(wantTaken - taken)
	if wantTrans >= 0 {
		c += 2 * absF(wantTrans-trans)
	}
	return c
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// rng is the deterministic generator used by synthesis (xorshift64*).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}
