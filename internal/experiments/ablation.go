package experiments

import (
	"context"
	"fmt"
	"math"

	"perfclone/internal/baseline"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
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
		n := opts.TimingInsts
		train := baseline.TrainingConfig{
			Cache:     cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
			Predictor: "gap",
			MaxInsts:  n,
		}
		budget := traceBudget(opts)
		// One meter walk per trace: the real trace feeds the training
		// cache, the training predictor and the predictor sweep; the
		// clone's feeds the sweep; the baseline clone's feeds the
		// training cache and the sweep.
		realT, err := pr.trace(false, n)
		if err != nil {
			return AblationRow{}, err
		}
		realM, targets, err := trainingWalk(ctx, realT, train)
		if err != nil {
			return AblationRow{}, err
		}
		// The baseline clone's trace is built (or loaded) here, then
		// shared by the cache sweep, the predictor sweep, and the
		// training-point check below.
		blTrace, err := baselineTrace(ctx, pr, targets, train, opts)
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

		cloneT, err := pr.trace(true, n)
		if err != nil {
			return AblationRow{}, err
		}
		cloneM := statsim.NewMeter(nil, ablationPredictors)
		if err := cloneM.Walk(ctx, cloneT, n); err != nil {
			return AblationRow{}, err
		}
		blM := statsim.NewMeter([]cache.Config{train.Cache}, ablationPredictors)
		if err := blM.Walk(ctx, blTrace, n); err != nil {
			return AblationRow{}, err
		}
		var cloneMAE, blMAE float64
		for i := range ablationPredictors {
			realRate := realM.MispredRate(1 + i) // predictor 0 is the training one
			cloneMAE += math.Abs(cloneM.MispredRate(i) - realRate)
			blMAE += math.Abs(blM.MispredRate(i) - realRate)
		}
		k := float64(len(ablationPredictors))
		return AblationRow{
			Workload:           pr.Name,
			CloneR:             cloneR,
			BaselineR:          blR,
			CloneMispredMAE:    cloneMAE / k,
			BaselineMispredMAE: blMAE / k,
			TrainMissReal:      targets.MissRate,
			TrainMissBaseline:  blM.Cache(0).MissRate(),
		}, nil
	})
}

// trainingWalk walks the first train.MaxInsts instructions of a real
// program's trace t once, through the training cache, the training
// predictor and then ablationPredictors, and returns the meter with the
// baseline's training targets. The walk sees the same references and
// outcomes, in the same order, as baseline.MeasureTargets executing the
// program, so the targets are bit-identical without the interpreter.
func trainingWalk(ctx context.Context, t *dyntrace.Trace, train baseline.TrainingConfig) (*statsim.Meter, baseline.Targets, error) {
	m := statsim.NewMeter([]cache.Config{train.Cache}, append([]string{train.Predictor}, ablationPredictors...))
	if err := m.Walk(ctx, t, train.MaxInsts); err != nil {
		return nil, baseline.Targets{}, err
	}
	return m, baseline.Targets{MissRate: m.Cache(0).MissRate(), MispredRate: m.MispredRate(0)}, nil
}

// baselineLabel names a pair's baseline artifacts in the store. The
// profile's key adds the real program's hash and the profiling budget;
// the label carries the rest of what calibration depends on — the timing
// budget and the training cache and predictor — in a file-name-safe form.
func baselineLabel(name string, train baseline.TrainingConfig) string {
	c := train.Cache
	return fmt.Sprintf("%s-baseline-t%d-c%d_%d_%d-%s", name, train.MaxInsts,
		c.Size, c.Assoc, c.LineSize, train.Predictor)
}

// baselineTrace returns the captured trace of pr's calibrated baseline
// clone; the caller closes it. The calibrated profile and the trace are
// ordinary get-or-compute artifacts under baselineLabel: a miss runs the
// footprint search and captures the clone, and a warm run regenerates
// the clone from the stored profile and maps its trace, with no search
// and no capture. A corrupt artifact is quarantined and recomputed like
// any other.
func baselineTrace(ctx context.Context, pr *Pair, targets baseline.Targets, train baseline.TrainingConfig, opts Options) (*dyntrace.Trace, error) {
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
		return nil, err
	}
	budget := traceBudget(opts)
	t, _, err := opts.Store.Trace(label, bl.Program, budget, func() (*dyntrace.Trace, error) {
		supervise.Beat(ctx)
		return dyntrace.CaptureContext(ctx, bl.Program, budget)
	})
	return t, err
}
