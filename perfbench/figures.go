package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfclone/internal/baseline"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/experiments"
	"perfclone/internal/stats"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// figureStages are the stages of `experiments -run all` after prepare,
// in the order the CLI runs them.
var figureStages = []string{"fig4", "fig6and7", "table3", "ablation"}

// figureRun is one rendered `experiments -run all`.
type figureRun struct {
	// sections holds each stage's rendered text; text is their
	// concatenation, byte-identical to the CLI's standard output.
	sections map[string][]byte
	text     []byte
	counts   supervise.Counts
	store    store.Counters

	cacheR, ipcErr, powErr, designIPC, designPow float64
}

// figureOptions are the CLI's defaults for `-run all -workers N -store DIR`.
func figureOptions(st *store.Store, workers int, order []string) experiments.Options {
	return experiments.Options{
		Workloads: order, Parallel: true, Workers: workers, Store: st,
		Supervisor: supervise.New(supervise.Options{Log: os.Stderr}),
	}
}

// prepare runs experiments.PrepareContext and returns the pairs in the
// canonical workload order, whatever order they were dispatched in, so
// the rendered figures do not depend on the seed.
func prepare(ctx context.Context, opts experiments.Options) ([]*experiments.Pair, error) {
	pairs, err := experiments.PrepareContext(ctx, opts)
	if err != nil {
		closePairs(pairs)
		return nil, err
	}
	rank := make(map[string]int)
	for i, n := range workloads.Names() {
		rank[n] = i
	}
	sort.Slice(pairs, func(i, j int) bool { return rank[pairs[i].Name] < rank[pairs[j].Name] })
	return pairs, nil
}

// closePairs releases the store mappings behind each pair's traces.
func closePairs(pairs []*experiments.Pair) {
	for _, p := range pairs {
		if p == nil {
			continue
		}
		p.RealTrace.Close()
		p.CloneTrace.Close()
	}
}

// runFigureStages renders the stages want selects, as `experiments -run
// all` renders them, with one span per stage under parent.
func (b *bench) runFigureStages(pairs []*experiments.Pair, opts experiments.Options, want func(string) bool, parent int) (*figureRun, error) {
	ctx := b.ctx
	fr := &figureRun{sections: make(map[string][]byte)}
	section := func(name string, fn func(w io.Writer) error) error {
		if !want(name) {
			return nil
		}
		var buf bytes.Buffer
		err := b.tr.do(parent, "experiments."+name, func(int) error { return fn(&buf) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(&buf)
		fr.sections[name] = buf.Bytes()
		fr.text = append(fr.text, buf.Bytes()...)
		return nil
	}
	steps := []struct {
		name string
		fn   func(w io.Writer) error
	}{
		{"fig3", func(w io.Writer) error {
			experiments.PrintFig3(w, experiments.Fig3(pairs))
			return nil
		}},
		{"fig4", func(w io.Writer) error {
			rows, err := experiments.Fig4Context(ctx, pairs, opts)
			if err != nil {
				return err
			}
			experiments.PrintFig4(w, rows)
			fmt.Fprintln(w)
			pts, err := experiments.Fig5(rows)
			if err != nil {
				return err
			}
			experiments.PrintFig5(w, pts)
			var rs []float64
			for _, r := range rows {
				rs = append(rs, r.R)
			}
			fr.cacheR = stats.Mean(rs)
			return nil
		}},
		{"fig6and7", func(w io.Writer) error {
			rows, err := experiments.Fig6and7Context(ctx, pairs, opts)
			if err != nil {
				return err
			}
			experiments.PrintFig6and7(w, rows)
			var ei, ep []float64
			for _, r := range rows {
				ei = append(ei, r.IPCErr)
				ep = append(ep, r.PowerErr)
			}
			fr.ipcErr, fr.powErr = 100*stats.Mean(ei), 100*stats.Mean(ep)
			return nil
		}},
		{"table3", func(w io.Writer) error {
			rows, sums, err := experiments.Table3Context(ctx, pairs, opts)
			if err != nil {
				return err
			}
			experiments.PrintTable3(w, sums)
			fmt.Fprintln(w)
			experiments.PrintFig8and9(w, experiments.Fig8and9Rows(rows))
			var si, sp []float64
			for _, s := range sums {
				si = append(si, s.AvgRelErrIPC)
				sp = append(sp, s.AvgRelErrPow)
			}
			fr.designIPC, fr.designPow = 100*stats.Mean(si), 100*stats.Mean(sp)
			return nil
		}},
		{"ablation", func(w io.Writer) error {
			rows, err := experiments.AblationContext(ctx, pairs, opts)
			if err != nil {
				return err
			}
			experiments.PrintAblation(w, rows)
			return nil
		}},
	}
	for _, s := range steps {
		if err := section(s.name, s.fn); err != nil {
			return nil, err
		}
	}
	return fr, nil
}

// figuresOp is one warm `experiments -run all -workers N -store DIR`:
// open the store, Prepare from it, render every figure.
func (b *bench) figuresOp(storeDir string, workers int, parent int) (*figureRun, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	opts := figureOptions(st, workers, b.shuffled(workloads.Names()))
	var pairs []*experiments.Pair
	err = b.tr.do(parent, "experiments.prepare", func(int) error {
		pairs, err = prepare(b.ctx, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer closePairs(pairs)
	fr, err := b.runFigureStages(pairs, opts, func(string) bool { return true }, parent)
	if err != nil {
		return nil, err
	}
	fr.counts = opts.Supervisor.Counts()
	fr.store = st.Counters()
	return fr, nil
}

// checkFigures compares a rendered run with the committed digest.
func checkFigures(text []byte, want string) error {
	sum := sha256.Sum256(text)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("figures digest %s, want %s", got, want)
	}
	return nil
}

// checkRun applies every per-iteration check to one rendered run.
func (b *bench) checkRun(fr *figureRun, want string) {
	b.attempted++
	switch err := checkFigures(fr.text, want); {
	case err != nil:
		b.fail("%v", err)
	case fr.counts.Failed > 0 || fr.counts.Retried > 0:
		b.fail("supervised tasks failed or retried: %+v", fr.counts)
	}
}

func runFigures(b *bench) error {
	want, err := readDigest("figures.sha256")
	if err != nil {
		return err
	}
	// Set-up fills the store with a cold Prepare, as the first
	// `experiments -store DIR` run on a machine does.
	var storeDir string
	err = b.setup(func(i int) error {
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
		storeDir = filepath.Join(b.work, fmt.Sprintf("store%d", i))
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		pairs, err := prepare(b.ctx, figureOptions(st, b.nproc, b.shuffled(workloads.Names())))
		closePairs(pairs)
		return err
	})
	if err != nil {
		return err
	}
	if b.tr.on {
		return traceFigures(b, storeDir, want)
	}

	var last *figureRun
	times, wall, err := b.measure(func() (time.Duration, error) {
		t0 := time.Now()
		fr, err := b.figuresOp(storeDir, b.nproc, 0)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		b.checkRun(fr, want)
		last = fr
		return d, nil
	})
	if err != nil {
		return err
	}
	b.setE2E("op_ms", ms(median(times)), "ms")
	b.setE2E("ops_per_s", float64(len(times))/wall.Seconds(), "1/s")
	fmt.Fprintf(os.Stderr, "perfbench: figures: Fig4 R %.3f, Fig6 IPC err %.2f%%, Fig7 power err %.2f%%, Table3 RE %.2f%% IPC / %.2f%% power\n",
		last.cacheR, last.ipcErr, last.powErr, last.designIPC, last.designPow)
	return b.crossCheckWorkers(storeDir, last)
}

// crossCheckWorkers re-renders one seed-chosen stage at 1 worker and
// requires it byte-identical to the same stage at nproc workers.
func (b *bench) crossCheckWorkers(storeDir string, at *figureRun) error {
	stage := figureStages[b.rng.Intn(len(figureStages))]
	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	opts := figureOptions(st, 1, workloads.Names())
	pairs, err := prepare(b.ctx, opts)
	if err != nil {
		return err
	}
	defer closePairs(pairs)
	one, err := b.runFigureStages(pairs, opts, func(s string) bool { return s == stage }, 0)
	if err != nil {
		return err
	}
	b.attempted++
	if !bytes.Equal(one.sections[stage], at.sections[stage]) {
		b.fail("%s at 1 worker differs from %s at %d workers", stage, stage, b.nproc)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: figures: %s identical at 1 and %d workers\n", stage, b.nproc)
	}
	return nil
}

// traceFigures is the traced run: one untraced and one traced warm run
// (their difference is the tracing overhead), then the derived pass that
// splits each stage into its layer calls.
func traceFigures(b *bench, storeDir, want string) error {
	b.tr.on = false
	t0 := time.Now()
	fr, err := b.figuresOp(storeDir, b.nproc, 0)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)
	b.checkRun(fr, want)
	b.tr.on = true

	root := b.tr.begin(0, "figures.op")
	fr, err = b.figuresOp(storeDir, b.nproc, root)
	b.tr.end(root)
	if err != nil {
		return err
	}
	b.checkRun(fr, want)
	traced := b.tr.get(root).dur()

	derived := b.tr.begin(0, "derived.figures")
	stageSpans, err := b.deriveFigures(storeDir, derived)
	b.tr.end(derived)
	if err != nil {
		return err
	}

	acct := account{}
	stageTimes, gap := b.tr.attribute(root)
	for stage, wall := range stageTimes {
		id, ok := stageSpans[stage]
		if !ok {
			acct.add(stage, wall) // fig3: no layer below it
			continue
		}
		acct.split(b.tr, stage, wall, id)
	}
	acct.add("experiments.unattributed", gap)
	acct.report(b, "figures", traced, 1)

	b.setLayer("tracing_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	b.setLayer("cache_r", fr.cacheR, "R")
	b.setLayer("ipc_err_pct", fr.ipcErr, "%")
	b.setLayer("power_err_pct", fr.powErr, "%")
	b.setLayer("design_ipc_relerr_pct", fr.designIPC, "%")
	b.setLayer("design_power_relerr_pct", fr.designPow, "%")
	b.storeLayers(fr.store, storeDir)
	b.superviseLayers(fr.counts)
	return nil
}

// deriveFigures repeats each stage's work through direct layer calls, at
// the stage's own parallelism, and returns the derived span of each
// stage. The stage internals it cannot reach (predictor walks, power
// estimates, statistics) stay in the stage's own self time.
func (b *bench) deriveFigures(storeDir string, parent int) (map[string]int, error) {
	ctx := b.ctx
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	names := workloads.Names()
	pairs := make([]*experiments.Pair, len(names))
	defer func() { closePairs(pairs) }()
	opts := figureOptions(st, b.nproc, names)
	lim := uarch.Limits{Warmup: 150_000, MaxInsts: 500_000}
	spans := make(map[string]int)

	stage := func(name string, workers int, fn func(i, parent int) error) error {
		id := b.tr.begin(parent, "derived."+name)
		defer b.tr.end(id)
		spans["experiments."+name] = id
		return forAll(len(names), workers, func(i int) error { return fn(i, id) })
	}
	err = stage("prepare", b.nproc, func(i, sp int) error {
		pairs[i], err = b.derivePrepare(st, names[i], false, sp)
		return err
	})
	if err != nil {
		return nil, err
	}

	cfgs := cache.Sweep28()
	sweep := func(sp int, t *dyntrace.Trace) error {
		var addrs, bits []uint64
		b.tr.do(sp, "dyntrace.decode", func(int) error {
			addrs, bits = t.Mem(2 * lim.MaxInsts)
			return nil
		})
		return b.tr.do(sp, "cache.sweep28", func(int) error {
			rs, err := cache.NewReplaySet(cfgs)
			if err != nil {
				return err
			}
			return rs.AccessStreamContext(ctx, addrs, bits)
		})
	}
	err = stage("fig4", b.nproc, func(i, sp int) error {
		if err := sweep(sp, pairs[i].RealTrace); err != nil {
			return err
		}
		return sweep(sp, pairs[i].CloneTrace)
	})
	if err != nil {
		return nil, err
	}
	err = stage("fig6and7", b.nproc, func(i, sp int) error {
		return b.tr.do(sp, "uarch.replay", func(int) error {
			for _, t := range []*dyntrace.Trace{pairs[i].RealTrace, pairs[i].CloneTrace} {
				if _, err := uarch.ReplayContext(ctx, t, uarch.BaseConfig(), lim); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	outer, inner := experiments.WorkerBudget(opts, len(names))
	err = stage("table3", outer, func(i, sp int) error {
		return b.tr.do(sp, "uarch.replay", func(int) error {
			for _, t := range []*dyntrace.Trace{pairs[i].RealTrace, pairs[i].CloneTrace} {
				if _, err := uarch.ReplayMultiWorkers(ctx, t, table3Configs(), lim, inner); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	train := baseline.TrainingConfig{
		Cache:     cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
		Predictor: "gap",
		MaxInsts:  lim.MaxInsts,
	}
	err = stage("ablation", b.nproc, func(i, sp int) error {
		pr := pairs[i]
		var bl *synth.Clone
		err := b.tr.do(sp, "baseline.generate", func(int) error {
			bl, _, err = baseline.Generate(pr.Real, pr.Profile, train, synth.Config{})
			return err
		})
		if err != nil {
			return err
		}
		var blTrace *dyntrace.Trace
		err = b.tr.do(sp, "dyntrace.capture", func(int) error {
			blTrace, err = dyntrace.CaptureContext(ctx, bl.Program, traceBudget)
			return err
		})
		if err != nil {
			return err
		}
		for _, t := range []*dyntrace.Trace{pr.RealTrace, pr.CloneTrace, blTrace} {
			if err := sweep(sp, t); err != nil {
				return err
			}
		}
		return nil
	})
	return spans, err
}

// table3Configs is the base configuration followed by the five design
// changes, as Table 3 replays them.
func table3Configs() []uarch.Config {
	base := uarch.BaseConfig()
	cfgs := []uarch.Config{base}
	for _, ch := range uarch.DesignChanges() {
		cfgs = append(cfgs, ch.Apply(base))
	}
	return cfgs
}

// forAll runs fn over [0,n) on workers goroutines; the first error by
// index wins.
func forAll(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
