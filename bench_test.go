package perfclone

// One benchmark per table and figure of the paper's evaluation
// (Section 5), plus the ablation benches DESIGN.md calls out. Each bench
// regenerates its experiment on a representative workload subset and
// attaches the experiment's fidelity figure as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reports both the cost of the experiment and its headline result.

import (
	"context"
	"testing"

	"perfclone/internal/baseline"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/experiments"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// benchWorkloads is a representative subset spanning the domains: integer
// table-driven, pointer/branchy, FP kernel, and DSP.
var benchWorkloads = []string{"crc32", "qsort", "fft", "adpcm"}

func benchOpts() experiments.Options {
	return experiments.Options{
		Workloads:    benchWorkloads,
		ProfileInsts: 400_000,
		TimingWarmup: 100_000,
		TimingInsts:  300_000,
		Parallel:     true,
	}
}

func preparePairs(b *testing.B, opts experiments.Options) []*experiments.Pair {
	b.Helper()
	pairs, err := experiments.Prepare(opts)
	if err != nil {
		b.Fatal(err)
	}
	return pairs
}

// freshPairs prepares a new set of pairs for one iteration with the
// timer stopped. Pairs memoize their simulation results, so an iteration
// that reused the previous one's pairs would time memo hits instead of
// simulation work.
func freshPairs(b *testing.B, opts experiments.Options) []*experiments.Pair {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	return preparePairs(b, opts)
}

// timeBase captures p's first lim.MaxInsts instructions and replays the
// trace on the base configuration.
func timeBase(b *testing.B, p *prog.Program, lim uarch.Limits) uarch.Stats {
	b.Helper()
	t, err := dyntrace.CaptureContext(context.Background(), p, lim.MaxInsts)
	if err != nil {
		b.Fatal(err)
	}
	st, err := uarch.ReplayContext(context.Background(), t, uarch.BaseConfig(), lim)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkFig3StrideCoverage regenerates Figure 3: per-benchmark
// single-stride coverage of dynamic memory references.
func BenchmarkFig3StrideCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := preparePairs(b, benchOpts())
		rows := experiments.Fig3(pairs)
		var cov []float64
		for _, r := range rows {
			cov = append(cov, r.Coverage)
		}
		b.ReportMetric(100*stats.Mean(cov), "coverage-%")
	}
}

// BenchmarkFig4CacheTracking regenerates Figure 4: Pearson correlation of
// real-vs-clone misses-per-instruction across the 28 cache configurations.
func BenchmarkFig4CacheTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, benchOpts())
		rows, err := experiments.Fig4Context(context.Background(), pairs, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var rs []float64
		for _, r := range rows {
			rs = append(rs, r.R)
		}
		b.ReportMetric(stats.Mean(rs), "pearson-R")
	}
}

// BenchmarkFig5Rankings regenerates Figure 5: the rank agreement of the 28
// cache configurations.
func BenchmarkFig5Rankings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, benchOpts())
		rows, err := experiments.Fig4Context(context.Background(), pairs, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		pts, err := experiments.Fig5(rows)
		if err != nil {
			b.Fatal(err)
		}
		var xr, xc []float64
		for _, p := range pts {
			xr = append(xr, p.RealRank)
			xc = append(xc, p.CloneRank)
		}
		r, err := stats.Pearson(xc, xr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r, "rank-R")
	}
}

// BenchmarkFig6BaseIPC regenerates Figure 6: absolute IPC error of the
// clones on the base configuration.
func BenchmarkFig6BaseIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, benchOpts())
		rows, err := experiments.Fig6and7Context(context.Background(), pairs, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var errs []float64
		for _, r := range rows {
			errs = append(errs, r.IPCErr)
		}
		b.ReportMetric(100*stats.Mean(errs), "ipc-err-%")
	}
}

// BenchmarkFig7BasePower regenerates Figure 7: absolute power error of
// the clones on the base configuration.
func BenchmarkFig7BasePower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, benchOpts())
		rows, err := experiments.Fig6and7Context(context.Background(), pairs, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var errs []float64
		for _, r := range rows {
			errs = append(errs, r.PowerErr)
		}
		b.ReportMetric(100*stats.Mean(errs), "power-err-%")
	}
}

// BenchmarkTable3DesignChanges regenerates Table 3: relative IPC/power
// error across the five design changes.
func BenchmarkTable3DesignChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, benchOpts())
		_, sums, err := experiments.Table3Context(context.Background(), pairs, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var ipc, pw []float64
		for _, s := range sums {
			ipc = append(ipc, s.AvgRelErrIPC)
			pw = append(pw, s.AvgRelErrPow)
		}
		b.ReportMetric(100*stats.Mean(ipc), "relerr-ipc-%")
		b.ReportMetric(100*stats.Mean(pw), "relerr-pow-%")
	}
}

// BenchmarkFig8and9DoubleWidth regenerates Figures 8 and 9: speedup and
// power growth when doubling the machine width, real vs clone.
func BenchmarkFig8and9DoubleWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, benchOpts())
		rows, _, err := experiments.Table3Context(context.Background(), pairs, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var realSp, cloneSp []float64
		for _, r := range experiments.Fig8and9Rows(rows) {
			realSp = append(realSp, r.RealIPC/r.RealBaseIPC)
			cloneSp = append(cloneSp, r.CloneIPC/r.CloneBaseIPC)
		}
		b.ReportMetric(stats.Mean(realSp), "real-speedup")
		b.ReportMetric(stats.Mean(cloneSp), "clone-speedup")
	}
}

// BenchmarkAblationBaseline regenerates the microarchitecture-dependent
// baseline comparison: cache-tracking correlation of clone vs baseline.
func BenchmarkAblationBaseline(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"crc32", "gsm"}
	for i := 0; i < b.N; i++ {
		pairs := freshPairs(b, opts)
		rows, err := experiments.AblationContext(context.Background(), pairs, opts)
		if err != nil {
			b.Fatal(err)
		}
		var cr, br []float64
		for _, r := range rows {
			cr = append(cr, r.CloneR)
			br = append(br, r.BaselineR)
		}
		b.ReportMetric(stats.Mean(cr), "clone-R")
		b.ReportMetric(stats.Mean(br), "baseline-R")
	}
}

// BenchmarkAblationContext compares per-(predecessor,successor) SFG
// profiling (the paper's Section 3.1.1 refinement) against flat per-block
// profiling, measured as clone IPC error on the base configuration.
func BenchmarkAblationContext(b *testing.B) {
	run := func(perBlock bool) float64 {
		var errs []float64
		for _, name := range benchWorkloads {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p := w.Build()
			prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 400_000, PerBlockNodes: perBlock})
			if err != nil {
				b.Fatal(err)
			}
			clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
			if err != nil {
				b.Fatal(err)
			}
			lim := uarch.Limits{Warmup: 100_000, MaxInsts: 300_000}
			realSt := timeBase(b, p, lim)
			cloneSt := timeBase(b, clone.Program, lim)
			e, err := stats.AbsRelError(cloneSt.IPC(), realSt.IPC())
			if err != nil {
				b.Fatal(err)
			}
			errs = append(errs, e)
		}
		return 100 * stats.Mean(errs)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "context-ipc-err-%")
		b.ReportMetric(run(true), "perblock-ipc-err-%")
	}
}

// BenchmarkAblationBranchModel compares the transition-rate branch model
// (Section 3.1.5) against the taken-rate-only strawman, measured as the
// clone's misprediction-rate error under the base GAp predictor.
func BenchmarkAblationBranchModel(b *testing.B) {
	run := func(takenOnly bool) float64 {
		var errs []float64
		for _, name := range []string{"qsort", "adpcm", "susan", "dijkstra"} {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p := w.Build()
			prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 400_000})
			if err != nil {
				b.Fatal(err)
			}
			clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{TakenRateOnlyBranches: takenOnly})
			if err != nil {
				b.Fatal(err)
			}
			lim := uarch.Limits{Warmup: 100_000, MaxInsts: 300_000}
			realSt := timeBase(b, p, lim)
			cloneSt := timeBase(b, clone.Program, lim)
			d := cloneSt.MispredRate() - realSt.MispredRate()
			if d < 0 {
				d = -d
			}
			errs = append(errs, d)
		}
		return 100 * stats.Mean(errs)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "transrate-mispred-err-pp")
		b.ReportMetric(run(true), "takenonly-mispred-err-pp")
	}
}

// BenchmarkBaselineTraining measures the cost of calibrating one
// microarchitecture-dependent baseline clone (the footprint search).
func BenchmarkBaselineTraining(b *testing.B) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		b.Fatal(err)
	}
	train := baseline.TrainingConfig{
		Cache:    cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
		MaxInsts: 200_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Generate(p, prof, train, synth.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
