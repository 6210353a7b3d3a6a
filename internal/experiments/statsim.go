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
	base := uarch.BaseConfig()
	return runStage(ctx, opts, "statsim", pairNames(pairs), func(ctx context.Context, c *cell, i int) (StatsimRow, error) {
		pr := pairs[i]
		n := c.opts.TimingInsts
		detailed, clone, err := pr.timeBoth(ctx, c, base)
		if err != nil {
			return StatsimRow{}, err
		}
		t, err := pr.trace(ctx, false, n)
		if err != nil {
			return StatsimRow{}, err
		}
		rates, err := statsim.MeasureRates(ctx, t, base, n)
		if err != nil {
			return StatsimRow{}, err
		}
		est, err := statsim.Estimate(ctx, pr.Profile, rates, base, statsim.Options{TraceLen: n})
		if err != nil {
			return StatsimRow{}, err
		}
		se, err := stats.AbsRelError(est.IPC(), detailed[0].IPC())
		if err != nil {
			return StatsimRow{}, err
		}
		ce, err := stats.AbsRelError(clone[0].IPC(), detailed[0].IPC())
		if err != nil {
			return StatsimRow{}, err
		}
		return StatsimRow{
			Workload:    pr.Name,
			DetailedIPC: detailed[0].IPC(),
			StatsimIPC:  est.IPC(),
			CloneIPC:    clone[0].IPC(),
			StatsimErr:  se,
			CloneErr:    ce,
		}, nil
	})
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
