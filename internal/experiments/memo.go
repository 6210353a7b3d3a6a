package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/supervise"
	"perfclone/internal/uarch"
)

// memo holds one Pair's finished simulation results, so every stage of a
// run that shares the pair computes each result once: Table 3 reuses the
// Figure 6/7 base column (or the other way round), and the ablation
// reuses Figure 4's cache sweeps. Entries are filled only by simulations
// that succeeded under a live context, so a cancelled, failed, or
// watchdog-killed cell never leaves a partial result behind; a retry
// simply recomputes. The memo lives and dies with its Pair.
type memo struct {
	mu    sync.Mutex
	stats map[statsKey]uarch.Stats
	mpi   map[mpiKey][]float64
}

// statsKey identifies one timing result. Config.Name is zeroed: it only
// labels reports, and Table 3's base column and Figure 6/7's base run
// name the same machine.
type statsKey struct {
	clone bool
	cfg   uarch.Config
	lim   uarch.Limits
}

// mpiKey identifies one cache.Sweep28 misses-per-instruction row.
type mpiKey struct {
	clone  bool
	budget uint64
}

func newStatsKey(clone bool, cfg uarch.Config, lim uarch.Limits) statsKey {
	cfg.Name = ""
	return statsKey{clone: clone, cfg: cfg, lim: lim}
}

// testComputeHook, when set by a test, observes every simulation the
// memo could not serve, with the key of the result being computed — the
// seam for asserting that nothing is simulated twice.
var testComputeHook func(pair string, key any)

// trace returns the captured trace of pr's real program or its clone,
// the front end of every timing run, cache sweep, and meter walk. Every
// consumer asks for at most traceBudget instructions, what Prepare
// captured, so a trace that does not cover n is an error, not a capture.
func (pr *Pair) trace(clone bool, n uint64) (*dyntrace.Trace, error) {
	t, side := pr.RealTrace, "real"
	if clone {
		t, side = pr.CloneTrace, "clone"
	}
	if t == nil || !t.Covers(n) {
		return nil, fmt.Errorf("experiments: %s %s trace does not cover the first %d instructions", pr.Name, side, n)
	}
	return t, nil
}

// timeBoth times pr's real program and its clone on every configuration
// in cfgs over the run's timing window (see runTimedMulti), each side's
// missing configurations in one fused walk. When the cell has two sides'
// worth of workers (c.sides == 2) the clone side runs alongside the real
// one; otherwise the sides run one after the other. Either way the
// result does not depend on which, and when both sides fail the real
// side's error is the one returned.
func (pr *Pair) timeBoth(ctx context.Context, c *cell, cfgs ...uarch.Config) (real, clone []uarch.Stats, err error) {
	lim := c.opts.timingLimits()
	var cloneErr error
	timeReal := func() { real, err = runTimedMulti(ctx, pr, false, cfgs, lim) }
	timeClone := func() { clone, cloneErr = runTimedMulti(ctx, pr, true, cfgs, lim) }
	if c.sides == 2 {
		alongside(timeClone, timeReal)
	} else if timeReal(); err == nil {
		timeClone()
	}
	if err == nil {
		err = cloneErr
	}
	if err != nil {
		return nil, nil, err
	}
	return real, clone, nil
}

// alongside runs side on a second goroutine while main runs on this one,
// and joins side before it returns, even when main panics: no goroutine
// of a cell outlives the cell, which checkpointing and Trace.Close rely
// on. A panic on side is recovered there and raised again here after the
// join, so the cell's supervisor contains it like any panic of the cell;
// when both panic, main's panic is the one that propagates.
func alongside(side, main func()) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		side()
	}()
	returned := false
	defer func() {
		if p := <-done; p != nil && returned {
			panic(p)
		}
	}()
	main()
	returned = true
}

// runTimedMulti times one side of pr on every configuration in cfgs.
// Results already in the pair's memo are reused; the missing
// configurations are replayed together in one fused trace walk
// (uarch.ReplayMultiWorkers over the pair's trace) and memoized. Each
// configuration's result is independent of which others share the walk,
// so a partly memoized sweep is bit-identical to simulating all of cfgs.
func runTimedMulti(ctx context.Context, pr *Pair, clone bool, cfgs []uarch.Config, lim uarch.Limits) ([]uarch.Stats, error) {
	out := make([]uarch.Stats, len(cfgs))
	var missing []int
	pr.memo.mu.Lock()
	for i, cfg := range cfgs {
		if st, ok := pr.memo.stats[newStatsKey(clone, cfg, lim)]; ok {
			st.Config = cfg // the key ignores Name; the result carries the caller's
			out[i] = st
		} else {
			missing = append(missing, i)
		}
	}
	pr.memo.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}
	todo := make([]uarch.Config, len(missing))
	for k, i := range missing {
		todo[k] = cfgs[i]
		if testComputeHook != nil {
			testComputeHook(pr.Name, newStatsKey(clone, cfgs[i], lim))
		}
	}
	t, err := pr.trace(clone, lim.MaxInsts)
	if err != nil {
		return nil, err
	}
	got, err := uarch.ReplayMultiWorkers(ctx, t, todo, lim, 1)
	if err != nil {
		return nil, err
	}
	for k, i := range missing {
		out[i] = got[k]
	}
	if supervise.Cause(ctx) == nil {
		pr.memo.mu.Lock()
		if pr.memo.stats == nil {
			pr.memo.stats = make(map[statsKey]uarch.Stats)
		}
		for k, cfg := range todo {
			pr.memo.stats[newStatsKey(clone, cfg, lim)] = got[k]
		}
		pr.memo.mu.Unlock()
	}
	return out, nil
}

// sweep28 returns one side of pr's misses-per-instruction across the 28
// cache.Sweep28 configurations over the first budget instructions,
// computing it at most once per pair. The caller owns the returned
// slice.
func sweep28(ctx context.Context, pr *Pair, clone bool, budget uint64) ([]float64, error) {
	key := mpiKey{clone: clone, budget: budget}
	pr.memo.mu.Lock()
	row, ok := pr.memo.mpi[key]
	pr.memo.mu.Unlock()
	if ok {
		return slices.Clone(row), nil
	}
	if testComputeHook != nil {
		testComputeHook(pr.Name, key)
	}
	t, err := pr.trace(clone, budget)
	if err != nil {
		return nil, err
	}
	row, err = CacheMPI(ctx, t, cache.Sweep28(), budget)
	if err != nil {
		return nil, err
	}
	if supervise.Cause(ctx) == nil {
		pr.memo.mu.Lock()
		if pr.memo.mpi == nil {
			pr.memo.mpi = make(map[mpiKey][]float64)
		}
		pr.memo.mpi[key] = slices.Clone(row)
		pr.memo.mu.Unlock()
	}
	return row, nil
}
