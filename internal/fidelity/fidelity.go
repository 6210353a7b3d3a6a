// Package fidelity closes the validation loop the generator leaves open:
// every synthesized clone is re-profiled through the same
// microarchitecture-independent characterization as the original
// (profile.Collect), and its instruction mix, dependency-distance
// distribution, dominant-stride coverage, branch behaviour, and SFG
// block-frequency distribution are compared against the target profile
// under per-attribute tolerances.
//
// This is the closed-loop discipline of MicroGrad (metric-feedback clone
// tuning) and Ditto (end-to-end clone validation) applied to the paper's
// 12-step generator: a silent regression in synthesis becomes a
// structured, greppable "fidelity: FAIL <attr>" report instead of a wrong
// number in a figure. On failure a bounded, deterministic repair loop
// regenerates the clone with derived seeds and reports which retry
// passed; persistent failure is a hard error carrying the full report.
package fidelity

import (
	"context"
	"fmt"
	"io"
	"math"

	"perfclone/internal/profile"
	"perfclone/internal/stats"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
)

// Tolerances bound each attribute's allowed divergence. Distribution
// attributes use the Jensen–Shannon divergence (bits, in [0,1]) or the
// symmetric chi-square distance (in [0,1]); scalar attributes use
// absolute deltas; the SFG check is a minimum Pearson correlation
// (expressed as the tolerance on 1−R).
type Tolerances struct {
	// MixJSD bounds the JS divergence between the global dynamic
	// instruction-class mixes.
	MixJSD float64 `json:"mixJSD"`
	// DepJSD and DepChi2 bound the JS divergence and chi-square distance
	// between the dependency-distance bucket histograms
	// (1/≤2/≤4/≤6/≤8/≤16/≤32/>32). These are sanity backstops: the
	// generator realizes dependencies through a 7-register rotation, so a
	// systematic residual is expected (long target distances fold into the
	// ≤8 bucket, loop-invariant register reads add artificial >32 mass) and
	// the defaults sit above it.
	DepJSD  float64 `json:"depJSD"`
	DepChi2 float64 `json:"depChi2"`
	// DepMid bounds the loss of medium-range dependency mass — the
	// fraction of dynamic instructions with producer distance in the
	// ≤6/≤8/≤16/≤32 buckets, the range the register rotation actively
	// reproduces. It is one-sided: the check fails when the clone retains
	// less than (1−DepMid) of the target's medium-range fraction.
	// Over-representation is benign (instruction interleaving inflates
	// short sampled distances), but a broken or disabled distance sampler
	// collapses everything to the first buckets and empties this range —
	// the failure mode the backstops above cannot separate from the
	// expected residual.
	DepMid float64 `json:"depMid"`
	// StrideCoverage bounds the fraction of the target's dynamic memory
	// accesses whose static op lost its exact dominant stride in the
	// clone's stream-pool plan (pools past the pointer-register budget
	// merge into a neighbour with a different stride). The re-profiled
	// raw coverage scalar is reported as a note, not gated: the clone
	// regularizes each stream onto its dominant stride by design, so its
	// own coverage is structurally higher than an irregular original's.
	StrideCoverage float64 `json:"strideCoverage"`
	// BranchTaken and BranchTransition bound the absolute deltas of the
	// execution-weighted mean taken and transition rates.
	BranchTaken      float64 `json:"branchTaken"`
	BranchTransition float64 `json:"branchTransition"`
	// SFGCorr bounds 1−R, where R is the Pearson correlation between the
	// profiled per-node dynamic-instruction shares and the shares the
	// clone's chain realizes.
	SFGCorr float64 `json:"sfgCorr"`
}

// DefaultTolerances are calibrated against the bundled workload corpus
// (400k-instruction profiles): every bundled workload's clone passes with
// comfortable headroom over the worst observed divergence (mix-jsd max
// 0.006, dep-jsd max 0.29, dep-chi2 max 0.34, stride loss max 0.26,
// branch deltas max 0.10/0.06, 1−R max 0.003, medium-range dependency
// retention always ≥ 1), while a generator with dependency-distance
// sampling collapsed retains at most 0.22 of the medium-range mass and
// fails dep-mid by a wide margin. The dep-jsd/dep-chi2 backstops sit far
// above the corpus maxima because tiny kernels push the realization
// residual much further (loop-maintenance instructions dominate a
// five-instruction body; divergences up to ~0.80 observed on hand-built
// edge loops) — they only reject near-total distribution loss, and it is
// dep-mid, not the backstops, that separates a dead sampler from the
// residual.
func DefaultTolerances() Tolerances {
	return Tolerances{
		MixJSD:           0.02,
		DepJSD:           0.85,
		DepChi2:          0.90,
		DepMid:           0.50,
		StrideCoverage:   0.40,
		BranchTaken:      0.15,
		BranchTransition: 0.15,
		SFGCorr:          0.05,
	}
}

// Scale returns the tolerances uniformly scaled by f (>1 loosens,
// <1 tightens) — what Options.Scale applies to the defaults.
func (t Tolerances) Scale(f float64) Tolerances {
	t.MixJSD *= f
	t.DepJSD *= f
	t.DepChi2 *= f
	t.DepMid *= f
	t.StrideCoverage *= f
	t.BranchTaken *= f
	t.BranchTransition *= f
	t.SFGCorr *= f
	return t
}

// profileInsts bounds the clone re-profiling run: enough to cover
// hundreds of outer-loop iterations of any bundled clone.
const profileInsts = 400_000

// Options configure the fidelity gate.
type Options struct {
	// Scale uniformly scales DefaultTolerances (≤0 = 1; >1 loosens,
	// <1 tightens).
	Scale float64
	// MaxRepair bounds the regeneration attempts after a failed check
	// (0 = default 3; negative = no repair, first verdict is final).
	MaxRepair int
	// Log receives one greppable line per attribute check and per repair
	// attempt (nil = silent).
	Log io.Writer

	// reportSeed and reportAttempt stamp provenance onto the report
	// before it is logged; Generate sets them per attempt so the
	// greppable lines name the seed that produced the clone.
	reportSeed    uint64
	reportAttempt int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.MaxRepair == 0 {
		o.MaxRepair = 3
	}
	if o.MaxRepair < 0 {
		o.MaxRepair = 0
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

// CheckContext re-profiles the clone and compares its
// microarchitecture-independent attributes against the target profile.
// The returned error is operational (the clone failed to execute); a
// clone that runs but diverges yields a Report with Pass == false and a
// nil error. Cancellation is threaded into the re-profiling pass (see
// profile.CollectContext), so a supervised fidelity gate honors stage
// deadlines and ticks its watchdog heartbeat.
func CheckContext(ctx context.Context, target *profile.Profile, clone *synth.Clone, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	observed, err := profile.CollectContext(ctx, clone.Program, profile.Options{MaxInsts: profileInsts})
	if err != nil {
		return nil, fmt.Errorf("fidelity: re-profiling clone of %q: %w", target.Name, err)
	}
	rep := &Report{Workload: target.Name, Attempt: 1, Seed: opts.reportSeed}
	if opts.reportAttempt > 0 {
		rep.Attempt = opts.reportAttempt
	}
	tol := DefaultTolerances().Scale(opts.Scale)

	// Instruction-class mix.
	rep.add(distAttr("mix-jsd", counts(target.GlobalMix[:]), counts(observed.GlobalMix[:]), tol.MixJSD, stats.JensenShannon))

	// Dependency-distance buckets: distribution backstops under both
	// distances, plus the one-sided medium-range retention check that
	// separates a dead sampler from the expected realization residual.
	rep.add(distAttr("dep-jsd", counts(target.GlobalDepDist[:]), counts(observed.GlobalDepDist[:]), tol.DepJSD, stats.JensenShannon))
	rep.add(distAttr("dep-chi2", counts(target.GlobalDepDist[:]), counts(observed.GlobalDepDist[:]), tol.DepChi2, stats.ChiSquareDistance))
	rep.add(depMidAttr(target, observed, tol.DepMid))

	// Per-static-op dominant-stride coverage (Figure 3's metric): how much
	// of the target's dynamic access weight kept its exact dominant stride
	// in the clone's stream-pool plan.
	rep.add(strideAttr(target, observed, clone, tol.StrideCoverage))

	// Branch behaviour: execution-weighted mean taken and transition
	// rates. The clone's loop-maintenance branches (backedge, stream
	// resets) are inside the measurement, exactly as the original's own
	// loop branches are inside its profile.
	tTaken, tTrans, tN := weightedBranchRates(target)
	oTaken, oTrans, _ := weightedBranchRates(observed)
	bt := scalarAttr("branch-taken", oTaken, tTaken, tol.BranchTaken)
	br := scalarAttr("branch-transition", oTrans, tTrans, tol.BranchTransition)
	if tN == 0 {
		bt.skip("target has no conditional branches")
		br.skip("target has no conditional branches")
	}
	rep.add(bt)
	rep.add(br)

	// SFG block-frequency correlation: profiled per-node dynamic-
	// instruction shares vs the shares realized by the clone's chain.
	rep.add(sfgAttr(target, clone, tol.SFGCorr))

	rep.Pass = true
	for _, a := range rep.Attributes {
		if !a.Pass {
			rep.Pass = false
		}
	}
	rep.log(opts.Log)
	return rep, nil
}

// counts widens a uint64 histogram for the stats helpers.
func counts(h []uint64) []float64 {
	out := make([]float64, len(h))
	for i, v := range h {
		out[i] = float64(v)
	}
	return out
}

// distAttr compares two histograms under a distance function. A target
// without mass skips the check; a clone that lost all mass the target has
// is a maximal-divergence failure.
func distAttr(name string, target, observed []float64, tol float64, dist func(p, q []float64) (float64, error)) Attribute {
	a := Attribute{Name: name, Tolerance: tol, Expected: 0}
	tMass, oMass := mass(target), mass(observed)
	switch {
	case tMass == 0 && oMass == 0:
		a.Pass = true
		a.Note = "no samples on either side"
	case tMass == 0:
		a.Pass = true
		a.Note = "target has no samples"
	case oMass == 0:
		a.Observed, a.Delta = 1, 1
		a.Note = "clone lost the distribution entirely"
	default:
		d, err := dist(observed, target)
		if err != nil {
			a.Observed, a.Delta = 1, 1
			a.Note = err.Error()
			return a
		}
		a.Observed, a.Delta = d, d
		a.Pass = d <= tol
	}
	return a
}

func mass(h []float64) float64 {
	var s float64
	for _, v := range h {
		s += v
	}
	return s
}

// scalarAttr compares one scalar attribute by absolute delta.
func scalarAttr(name string, observed, expected, tol float64) Attribute {
	d := math.Abs(observed - expected)
	return Attribute{
		Name: name, Observed: observed, Expected: expected,
		Delta: d, Tolerance: tol, Pass: d <= tol,
	}
}

// depMidBuckets are the ≤6/≤8/≤16/≤32 dependency-distance buckets — the
// medium range the generator's register rotation actively reproduces.
// Bucket 1/≤2 fill up whenever sampling degenerates, and >32 gains
// artificial mass from loop-invariant register reads, so neither end can
// witness a dead sampler; this range can.
var depMidBuckets = [...]int{3, 4, 5, 6}

// depMidAttr checks medium-range dependency retention: the clone must
// keep at least (1−tol) of the target's medium-range mass fraction.
// Delta is the retention shortfall max(0, 1−observed/expected).
func depMidAttr(target, observed *profile.Profile, tol float64) Attribute {
	a := Attribute{Name: "dep-mid", Tolerance: tol}
	midFrac := func(h []uint64) float64 {
		var mid, total uint64
		for _, v := range h {
			total += v
		}
		for _, i := range depMidBuckets {
			mid += h[i]
		}
		if total == 0 {
			return 0
		}
		return float64(mid) / float64(total)
	}
	a.Expected = midFrac(target.GlobalDepDist[:])
	a.Observed = midFrac(observed.GlobalDepDist[:])
	if a.Expected < 0.02 {
		a.skip("target has negligible medium-range dependency mass")
		return a
	}
	a.Delta = math.Max(0, 1-a.Observed/a.Expected)
	a.Pass = a.Delta <= tol
	return a
}

// strideAttr checks per-static-op dominant-stride coverage: the fraction
// of the target's dynamic memory accesses whose static op was planned
// into a stream pool with exactly its profiled dominant stride. Pools
// past the pointer-register budget merge into a stride-distance
// neighbour, losing coverage — the regression this gate bounds. Delta is
// the lost fraction. The re-profiled raw coverage of both sides is
// annotated for context but not gated: the clone regularizes streams by
// design, so its raw coverage is structurally unlike an irregular
// original's.
func strideAttr(target, observed *profile.Profile, clone *synth.Clone, tol float64) Attribute {
	a := Attribute{Name: "stride-coverage", Expected: 1, Tolerance: tol}
	var kept, total uint64
	for _, m := range target.MemList {
		if m.Count == 0 {
			continue
		}
		total += m.Count
		if s, ok := clone.RefStrides[m.Ref]; ok && s == m.DominantStride {
			kept += m.Count
		}
	}
	if total == 0 {
		a.skip("target has no memory operations")
		return a
	}
	a.Observed = float64(kept) / float64(total)
	a.Delta = 1 - a.Observed
	a.Pass = a.Delta <= tol
	a.Note = fmt.Sprintf("raw profiled coverage: target %.3f, clone %.3f",
		target.StrideCoverage(), observed.StrideCoverage())
	return a
}

// weightedBranchRates aggregates per-branch taken and transition rates,
// weighted by execution count (transition rates by transition
// opportunities, Count−1).
func weightedBranchRates(p *profile.Profile) (taken, trans float64, branches int) {
	var execs, takens, opps, transitions uint64
	for _, bs := range p.BranchList {
		if bs.Count == 0 {
			continue
		}
		branches++
		execs += bs.Count
		takens += bs.Taken
		opps += bs.Count - 1
		transitions += bs.Transitions
	}
	if execs > 0 {
		taken = float64(takens) / float64(execs)
	}
	if opps > 0 {
		trans = float64(transitions) / float64(opps)
	}
	return taken, trans, branches
}

// sfgAttr correlates the profiled per-node dynamic-instruction shares
// with the shares the clone's chain realizes. Each chain block executes
// exactly once per outer iteration, so chain instances × block size is
// the clone's realized block-frequency distribution.
func sfgAttr(target *profile.Profile, clone *synth.Clone, tol float64) Attribute {
	a := Attribute{Name: "sfg-corr", Expected: 1, Tolerance: tol}
	var expTotal, obsTotal float64
	exp := make([]float64, len(target.NodeList))
	obs := make([]float64, len(target.NodeList))
	for i, n := range target.NodeList {
		exp[i] = float64(n.Count) * float64(n.Size)
		obs[i] = float64(clone.NodeInstances[n.Key]) * float64(n.Size)
		expTotal += exp[i]
		obsTotal += obs[i]
	}
	if len(exp) < 3 || expTotal == 0 || !hasVariance(exp) {
		a.Observed, a.Pass = 1, true
		a.Note = "too few SFG nodes for a correlation"
		return a
	}
	if obsTotal == 0 {
		a.Delta = 1
		a.Note = "clone chain realized no profiled node"
		return a
	}
	for i := range exp {
		exp[i] /= expTotal
		obs[i] /= obsTotal
	}
	r, err := stats.Pearson(obs, exp)
	if err != nil {
		// The expected shares vary but the realized ones do not (or the
		// correlation degenerated): a flat chain is a failed check.
		a.Delta = 1
		a.Note = err.Error()
		return a
	}
	a.Observed = r
	a.Delta = 1 - r
	a.Pass = a.Delta <= tol
	return a
}

func hasVariance(v []float64) bool {
	for _, x := range v[1:] {
		if x != v[0] {
			return true
		}
	}
	return false
}

// deriveSeed maps (base seed, attempt) to the generation seed
// deterministically: attempt 1 uses the base seed itself; later attempts
// mix the attempt index in with SplitMix64, so repair runs are
// reproducible from the original seed alone.
func deriveSeed(base uint64, attempt int) uint64 {
	if attempt <= 1 {
		return base
	}
	z := base + uint64(attempt-1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// GenerateContext is the closed loop: synthesize, check, and — on a
// failed check — regenerate with derived seeds up to MaxRepair times.
// It returns the first passing clone with its report (Report.Attempt
// says which retry succeeded). When every attempt fails, the error
// carries the final attempt's full report so a generator bug can never
// silently ship a bad clone. It is the one clone gate: callers keep
// their own ungated path and their own policy for a failed gate.
//
// The repair loop polls ctx before every attempt (returning the
// context's cancellation cause alongside the last report) and threads
// ctx through synthesis and the re-profiling check, so a supervised
// clone-generation task honors stage deadlines and keeps its watchdog
// heartbeat ticking.
func GenerateContext(ctx context.Context, target *profile.Profile, cfg synth.Config, opts Options) (*synth.Clone, *Report, error) {
	opts = opts.withDefaults()
	baseSeed := cfg.Seed
	if baseSeed == 0 {
		baseSeed = 1
	}

	var failedSeeds []uint64
	var lastRep *Report
	for attempt := 1; attempt <= 1+opts.MaxRepair; attempt++ {
		if err := supervise.Cause(ctx); err != nil {
			return nil, lastRep, err
		}
		supervise.Beat(ctx)
		acfg := cfg
		acfg.Seed = deriveSeed(baseSeed, attempt)
		clone, err := synth.GenerateContext(ctx, target, acfg)
		if err != nil {
			return nil, lastRep, fmt.Errorf("fidelity: regenerating %q (attempt %d, seed %d): %w", target.Name, attempt, acfg.Seed, err)
		}
		aopts := opts
		aopts.reportSeed = acfg.Seed
		aopts.reportAttempt = attempt
		rep, err := CheckContext(ctx, target, clone, aopts)
		if err != nil {
			return nil, lastRep, err
		}
		rep.FailedSeeds = failedSeeds
		if rep.Pass {
			if attempt > 1 {
				fmt.Fprintf(opts.Log, "fidelity: REPAIRED %s on attempt %d (seed %d after %v)\n",
					target.Name, attempt, acfg.Seed, failedSeeds)
			}
			return clone, rep, nil
		}
		failedSeeds = append(failedSeeds, acfg.Seed)
		lastRep = rep
		if attempt < 1+opts.MaxRepair { // another attempt follows
			fmt.Fprintf(opts.Log, "fidelity: attempt %d/%d for %s failed; retrying with derived seed\n",
				attempt, 1+opts.MaxRepair, target.Name)
		}
	}
	return nil, lastRep, fmt.Errorf("fidelity: clone of %q failed the fidelity gate after %d attempt(s):\n%s",
		target.Name, 1+opts.MaxRepair, lastRep)
}
