package experiments

import (
	"context"
	"fmt"
	"io"

	"perfclone/internal/stats"
	"perfclone/internal/statsim"
	"perfclone/internal/uarch"
)

// StatsimRow compares the two synthesis lineages at the base
// configuration: statistical simulation (the paper's §2 prior work, which
// consumes configuration-bound rates) and the synthetic clone (the
// paper's contribution, a portable program).
type StatsimRow struct {
	Workload    string
	DetailedIPC float64
	StatsimIPC  float64
	CloneIPC    float64
	StatsimErr  float64
	CloneErr    float64
}

// StatsimComparisonContext measures all three at the Table 2 base
// configuration, with per-workload checkpointing (stage "statsim").
// Statistical simulation's rates are measured on the real program's
// trace, the same stream the detailed run replays.
func StatsimComparisonContext(ctx context.Context, pairs []*Pair, opts Options) ([]StatsimRow, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "statsim")
	defer cancelStage()
	base := uarch.BaseConfig()
	lim := uarch.Limits{Warmup: opts.TimingWarmup, MaxInsts: opts.TimingInsts}
	sr, err := newStage(opts, "statsim", len(pairs))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	rows := make([]StatsimRow, len(pairs))
	err = forEach(ctx, opts, len(pairs), func(i int) error {
		pr := pairs[i]
		return stageCell(ctx, sr, pr.Name, &rows[i], func(tctx context.Context) error {
			detailed, err := runTimed(tctx, pr, false, base, lim)
			if err != nil {
				return err
			}
			clone, err := runTimed(tctx, pr, true, base, lim)
			if err != nil {
				return err
			}
			t, err := pr.trace(tctx, false, opts.TimingInsts)
			if err != nil {
				return err
			}
			rates, err := statsim.MeasureRates(t, base, opts.TimingInsts)
			if err != nil {
				return err
			}
			est, err := statsim.Estimate(tctx, pr.Profile, rates, base, statsim.Options{TraceLen: opts.TimingInsts})
			if err != nil {
				return err
			}
			se, err := stats.AbsRelError(est.IPC(), detailed.IPC())
			if err != nil {
				return err
			}
			ce, err := stats.AbsRelError(clone.IPC(), detailed.IPC())
			if err != nil {
				return err
			}
			rows[i] = StatsimRow{
				Workload:    pr.Name,
				DetailedIPC: detailed.IPC(),
				StatsimIPC:  est.IPC(),
				CloneIPC:    clone.IPC(),
				StatsimErr:  se,
				CloneErr:    ce,
			}
			return nil
		})
	})
	return rows, err
}

// PrintStatsimComparison renders the three-way comparison.
func PrintStatsimComparison(w io.Writer, rows []StatsimRow) {
	fmt.Fprintln(w, "Extension — statistical simulation (§2 prior work) vs clone, base config")
	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %10s\n",
		"benchmark", "detailed", "statsim", "clone", "ss err", "clone err")
	var se, ce []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.3f %10.3f %10.3f %9.1f%% %9.1f%%\n",
			r.Workload, r.DetailedIPC, r.StatsimIPC, r.CloneIPC,
			100*r.StatsimErr, 100*r.CloneErr)
		se = append(se, r.StatsimErr)
		ce = append(ce, r.CloneErr)
	}
	fmt.Fprintf(w, "%-14s %32s %9.1f%% %9.1f%%\n", "average", "",
		100*stats.Mean(se), 100*stats.Mean(ce))
	fmt.Fprintln(w, "(both estimate the training point; only the clone is a distributable")
	fmt.Fprintln(w, " program whose behaviour ports to other configurations)")
}
