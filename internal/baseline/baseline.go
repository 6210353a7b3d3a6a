// Package baseline implements the microarchitecture-DEPENDENT workload
// synthesis the paper argues against (Section 1, citing Bell & John): the
// clone's memory and branch behaviour are generated to match a cache miss
// rate and a branch misprediction rate measured on one *training*
// configuration, rather than the program's inherent locality and
// predictability. Such clones match the training point well and drift
// when the cache or predictor changes — the ablation experiment
// demonstrates exactly that.
//
// The implementation reuses the synthesizer unchanged and substitutes the
// models by rewriting the profile: every static memory instruction becomes
// a line-stride walker over a footprint calibrated against the training
// cache, and branch statistics are replaced by a mix of constant and
// 50/50-random branches calibrated against the training predictor.
package baseline

import (
	"context"
	"fmt"
	"math"
	"sort"

	"perfclone/internal/cache"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/statsim"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
)

// TrainingConfig is the single design point the baseline clone is
// calibrated against.
type TrainingConfig struct {
	// Cache is the training data cache.
	Cache cache.Config
	// Predictor is the training branch predictor spec (bpred.ByName).
	Predictor string
	// MaxInsts bounds calibration simulations (0 = 400k).
	MaxInsts uint64
}

func (t TrainingConfig) withDefaults() TrainingConfig {
	if t.Cache.Size == 0 {
		t.Cache = cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32}
	}
	if t.Predictor == "" {
		t.Predictor = "gap"
	}
	if t.MaxInsts == 0 {
		t.MaxInsts = 400_000
	}
	return t
}

// Targets are the microarchitecture-dependent metrics measured on the
// training configuration.
type Targets struct {
	MissRate    float64
	MispredRate float64
}

// MeasureTargets executes p for up to t.MaxInsts instructions through a
// statsim.Meter over the training cache and predictor.
func MeasureTargets(p *prog.Program, t TrainingConfig) (Targets, error) {
	t = t.withDefaults()
	m := statsim.NewMeter([]cache.Config{t.Cache}, []string{t.Predictor})
	if err := m.Run(context.Background(), p, t.MaxInsts); err != nil {
		return Targets{}, err
	}
	return Targets{MissRate: m.Cache(0).MissRate(), MispredRate: m.MispredRate(0)}, nil
}

// Generate builds a microarchitecture-dependent clone of p calibrated
// against the training configuration: it measures the training targets
// by executing p, then runs the footprint search (Calibrate).
func Generate(p *prog.Program, prof *profile.Profile, t TrainingConfig, cfg synth.Config) (*synth.Clone, Targets, error) {
	targets, err := MeasureTargets(p, t)
	if err != nil {
		return nil, Targets{}, err
	}
	clone, _, err := Calibrate(context.Background(), prof, targets, t, cfg)
	if err != nil {
		return nil, targets, err
	}
	return clone, targets, nil
}

// Calibrate is the footprint search: it finds the walked footprint whose
// line-stride clone reproduces targets.MissRate on the training cache,
// and returns that clone with the rewritten profile it was generated
// from (synthesizing the profile again yields the same program). Each of
// the candidates costs a synthesis and a functional run, so ctx is
// checked, and its heartbeat ticked, once per candidate and once per
// chunk of the run: a cancelled search returns the cancellation cause
// within one candidate.
func Calibrate(ctx context.Context, prof *profile.Profile, targets Targets, t TrainingConfig, cfg synth.Config) (*synth.Clone, *profile.Profile, error) {
	t = t.withDefaults()
	line := int64(t.Cache.LineSize)
	var best *synth.Clone
	var bestProf *profile.Profile
	bestErr := math.Inf(1)
	for f := uint64(2 << 10); f <= 4<<20; f *= 2 {
		if err := supervise.Cause(ctx); err != nil {
			return nil, nil, err
		}
		supervise.Beat(ctx)
		rewritten := rewriteProfile(prof, line, f, targets.MispredRate)
		clone, err := synth.GenerateContext(ctx, rewritten, cfg)
		if err != nil {
			return nil, nil, err
		}
		m := statsim.NewMeter([]cache.Config{t.Cache}, nil)
		if err := m.Run(ctx, clone.Program, t.MaxInsts); err != nil {
			return nil, nil, err
		}
		if e := math.Abs(m.Cache(0).MissRate() - targets.MissRate); e < bestErr {
			bestErr = e
			best, bestProf = clone, rewritten
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("baseline: footprint search failed for %s", prof.Name)
	}
	return best, bestProf, nil
}

// rewriteProfile replaces the microarchitecture-independent memory and
// branch attributes with training-metric-matching ones: one shared
// footprint walked at the training cache's line stride, and a
// constant/random branch mix sized to hit the training misprediction
// rate.
func rewriteProfile(prof *profile.Profile, stride int64, footprint uint64, mispred float64) *profile.Profile {
	out := &profile.Profile{
		Name:          prof.Name + "-bljdep",
		TotalInsts:    prof.TotalInsts,
		Nodes:         prof.Nodes,
		NodeList:      prof.NodeList,
		GlobalMix:     prof.GlobalMix,
		GlobalDepDist: prof.GlobalDepDist,
		Mem:           make(map[profile.StaticRef]*profile.MemStat, len(prof.Mem)),
		Branches:      make(map[profile.StaticRef]*profile.BranchStat, len(prof.Branches)),
	}
	for _, m := range prof.MemList {
		nm := *m
		nm.DominantStride = stride
		nm.DominantCount = nm.Count
		nm.MinAddr = 0
		nm.MaxAddr = footprint
		nm.FirstAddr = 0
		out.Mem[nm.Ref] = &nm
		out.MemList = append(out.MemList, &nm)
	}
	// Branch rewrite: the heaviest branches become 50/50 random until
	// their weight reaches 2 × target misprediction rate (a random
	// branch mispredicts ~50 % on any predictor); the rest become
	// constant in their biased direction.
	var total uint64
	for _, bs := range prof.BranchList {
		total += bs.Count
	}
	randomBudget := uint64(2 * mispred * float64(total))
	byWeight := make([]*profile.BranchStat, len(prof.BranchList))
	copy(byWeight, prof.BranchList)
	sort.Slice(byWeight, func(i, j int) bool { return byWeight[i].Count > byWeight[j].Count })
	random := make(map[profile.StaticRef]bool)
	var used uint64
	var partial *profile.BranchStat
	var partialQ float64
	for _, bs := range byWeight {
		if used >= randomBudget {
			break
		}
		if used+bs.Count > randomBudget+randomBudget/8 {
			// Too heavy to be fully random: remember the heaviest such
			// branch as a candidate for partial (biased) randomness.
			if partial == nil {
				partial = bs
			}
			continue
		}
		random[bs.Ref] = true
		used += bs.Count
	}
	if used < randomBudget && partial != nil {
		// A biased iid branch with taken probability q contributes
		// ≈ q·count mispredictions, i.e. weight 2q·count.
		partialQ = float64(randomBudget-used) / (2 * float64(partial.Count))
		if partialQ > 0.5 {
			partialQ = 0.5
		}
	}
	for _, bs := range prof.BranchList {
		nb := *bs
		switch {
		case random[nb.Ref]:
			nb.Taken = nb.Count / 2
			if nb.Count > 1 {
				nb.Transitions = (nb.Count - 1) / 2
			}
		case partial != nil && nb.Ref == partial.Ref && partialQ > 0:
			q := partialQ
			nb.Taken = uint64(q * float64(nb.Count))
			if nb.Count > 1 {
				nb.Transitions = uint64(2 * q * (1 - q) * float64(nb.Count-1))
			}
		case bs.TakenRate() >= 0.5:
			nb.Taken = nb.Count
			nb.Transitions = 0
		default:
			nb.Taken = 0
			nb.Transitions = 0
		}
		out.Branches[nb.Ref] = &nb
		out.BranchList = append(out.BranchList, &nb)
	}
	return out
}
