package experiments

import (
	"context"
	"fmt"
	"math"

	"perfclone/internal/baseline"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/statsim"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
)

// AblationRow compares the microarchitecture-independent clone against
// the microarchitecture-dependent baseline clone for one workload.
type AblationRow struct {
	Workload string
	// Cache-tracking correlation across the 28 configurations
	// (Figure 4's metric) for each clone.
	CloneR    float64
	BaselineR float64
	// Misprediction-rate tracking across predictors: mean absolute
	// error vs the real program.
	CloneMispredMAE    float64
	BaselineMispredMAE float64
	// At the training point both clones should match; this shows the
	// baseline is not simply broken.
	TrainMissReal     float64
	TrainMissBaseline float64
}

// ablationPredictors are the predictor sweep of the ablation.
var ablationPredictors = []string{"gap", "bimodal", "gshare", "not-taken", "taken"}

// AblationContext runs the baseline-vs-clone comparison for each pair,
// with per-workload checkpointing (stage "ablation"). The baseline clone
// is trained on the base configuration's L1D and predictor; both clones
// are then swept across the 28 cache configurations and the predictor
// set.
func AblationContext(ctx context.Context, pairs []*Pair, opts Options) ([]AblationRow, error) {
	cfgs := cache.Sweep28()
	return runStage(ctx, opts, "ablation", pairNames(pairs), func(ctx context.Context, c *cell, i int) (AblationRow, error) {
		pr, opts := pairs[i], c.opts
		train := baseline.TrainingConfig{
			Cache:     cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
			Predictor: "gap",
			MaxInsts:  opts.TimingInsts,
		}
		budget := traceBudget(opts)
		targets, err := trainingTargets(ctx, pr, train)
		if err != nil {
			return AblationRow{}, err
		}
		// The baseline clone and its trace are built (or loaded) here,
		// then shared by the cache sweep, the predictor sweep, and the
		// training-point check below.
		bl, blTrace, err := baselineClone(ctx, pr, targets, train, opts)
		if err != nil {
			return AblationRow{}, err
		}
		defer blTrace.Close()
		realMPI, err := sweep28(ctx, pr, false, budget)
		if err != nil {
			return AblationRow{}, err
		}
		cloneMPI, err := sweep28(ctx, pr, true, budget)
		if err != nil {
			return AblationRow{}, err
		}
		blMPI, err := CacheMPI(ctx, blTrace, cfgs, budget)
		if err != nil {
			return AblationRow{}, err
		}
		// Zero variance (a clone whose miss behaviour does not change
		// across configurations at all) counts as zero correlation —
		// that *is* the failure mode being measured.
		cloneR, err := stats.Pearson(relToRef(cloneMPI), relToRef(realMPI))
		if err != nil {
			cloneR = 0
		}
		blR, err := stats.Pearson(relToRef(blMPI), relToRef(realMPI))
		if err != nil {
			blR = 0
		}

		realT, err := pr.trace(ctx, false, opts.TimingInsts)
		if err != nil {
			return AblationRow{}, err
		}
		cloneT, err := pr.trace(ctx, true, opts.TimingInsts)
		if err != nil {
			return AblationRow{}, err
		}
		// One walk per trace feeds all of ablationPredictors.
		realM, err := statsim.MispredRates(ctx, realT, ablationPredictors, opts.TimingInsts)
		if err != nil {
			return AblationRow{}, err
		}
		cloneM, err := statsim.MispredRates(ctx, cloneT, ablationPredictors, opts.TimingInsts)
		if err != nil {
			return AblationRow{}, err
		}
		blM, err := statsim.MispredRates(ctx, blTrace, ablationPredictors, opts.TimingInsts)
		if err != nil {
			return AblationRow{}, err
		}
		var cloneMAE, blMAE float64
		for i := range ablationPredictors {
			cloneMAE += math.Abs(cloneM[i] - realM[i])
			blMAE += math.Abs(blM[i] - realM[i])
		}
		n := float64(len(ablationPredictors))

		blTrainMiss, err := missRateFor(ctx, bl.Program, blTrace, train.Cache, opts.TimingInsts)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Workload:           pr.Name,
			CloneR:             cloneR,
			BaselineR:          blR,
			CloneMispredMAE:    cloneMAE / n,
			BaselineMispredMAE: blMAE / n,
			TrainMissReal:      targets.MissRate,
			TrainMissBaseline:  blTrainMiss,
		}, nil
	})
}

// missRateFor computes the single-config miss rate of the first maxInsts
// instructions by replaying the data-reference stream of traceFor's
// trace. The replay polls ctx like every other cache sweep.
func missRateFor(ctx context.Context, p *prog.Program, t *dyntrace.Trace, cfg cache.Config, maxInsts uint64) (float64, error) {
	rs, err := cache.NewReplaySet([]cache.Config{cfg})
	if err != nil {
		return 0, err
	}
	if t, err = traceFor(ctx, p, t, maxInsts); err != nil {
		return 0, err
	}
	if err := replayRefs(ctx, rs, t, maxInsts); err != nil {
		return 0, err
	}
	return rs.Stats()[0].MissRate(), nil
}

// trainingTargets measures the baseline's training targets on the real
// program by walking its trace: the same data references and branch
// outcomes, in the same order, as baseline.MeasureTargets executing the
// program, so the targets are bit-identical without the interpreter.
func trainingTargets(ctx context.Context, pr *Pair, train baseline.TrainingConfig) (baseline.Targets, error) {
	t, err := pr.trace(ctx, false, train.MaxInsts)
	if err != nil {
		return baseline.Targets{}, err
	}
	miss, err := missRateFor(ctx, pr.Real, t, train.Cache, train.MaxInsts)
	if err != nil {
		return baseline.Targets{}, err
	}
	mispred, err := statsim.MispredRates(ctx, t, []string{train.Predictor}, train.MaxInsts)
	if err != nil {
		return baseline.Targets{}, err
	}
	return baseline.Targets{MissRate: miss, MispredRate: mispred[0]}, nil
}

// baselineLabel names a pair's baseline artifacts in the store. The
// profile's key adds the real program's hash and the profiling budget;
// the label carries the rest of what calibration depends on — the timing
// budget and the training cache and predictor — in a file-name-safe form.
func baselineLabel(name string, train baseline.TrainingConfig) string {
	c := train.Cache
	return fmt.Sprintf("%s-baseline-t%d-c%d_%d_%d%s-%s", name, train.MaxInsts,
		c.Size, c.Assoc, c.LineSize, c.Replacement, train.Predictor)
}

// baselineClone returns pr's calibrated baseline clone and its captured
// trace; the caller closes the trace. The calibrated profile and the
// trace are ordinary get-or-compute artifacts under baselineLabel: a miss
// runs the footprint search and captures the clone, and a warm run
// regenerates the clone from the stored profile and maps its trace, with
// no search and no capture. A corrupt artifact is quarantined and
// recomputed like any other.
func baselineClone(ctx context.Context, pr *Pair, targets baseline.Targets, train baseline.TrainingConfig, opts Options) (*synth.Clone, *dyntrace.Trace, error) {
	label := baselineLabel(pr.Name, train)
	var bl *synth.Clone
	prof, _, err := opts.Store.Profile(label, pr.Real, opts.ProfileInsts, func() (prof *profile.Profile, err error) {
		bl, prof, err = baseline.Calibrate(ctx, pr.Profile, targets, train, synth.Config{})
		return prof, err
	})
	if err == nil && bl == nil {
		bl, err = synth.GenerateContext(ctx, prof, synth.Config{})
	}
	if err != nil {
		return nil, nil, err
	}
	budget := traceBudget(opts)
	t, _, err := opts.Store.Trace(label, bl.Program, budget, func() (*dyntrace.Trace, error) {
		supervise.Beat(ctx)
		return dyntrace.CaptureContext(ctx, bl.Program, budget)
	})
	if err != nil {
		return nil, nil, err
	}
	return bl, t, nil
}
