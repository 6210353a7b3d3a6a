package experiments

import (
	"context"
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

// trace returns a trace covering the first n instructions of pr's real
// program or its clone: the pair's captured trace, or a fresh capture
// when that one is too short (see traceFor).
func (pr *Pair) trace(ctx context.Context, clone bool, n uint64) (*dyntrace.Trace, error) {
	if clone {
		return traceFor(ctx, pr.Clone.Program, pr.CloneTrace, n)
	}
	return traceFor(ctx, pr.Real, pr.RealTrace, n)
}

// timeBoth times pr's real program and its clone on every configuration
// in cfgs over the run's timing window (see runTimedMulti), each side's
// missing configurations in one fused walk over c.inner goroutines.
func (pr *Pair) timeBoth(ctx context.Context, c *cell, cfgs ...uarch.Config) (real, clone []uarch.Stats, err error) {
	lim := c.opts.timingLimits()
	if real, err = runTimedMulti(ctx, pr, false, cfgs, lim, c.inner); err != nil {
		return nil, nil, err
	}
	if clone, err = runTimedMulti(ctx, pr, true, cfgs, lim, c.inner); err != nil {
		return nil, nil, err
	}
	return real, clone, nil
}

// runTimedMulti times one side of pr on every configuration in cfgs.
// Results already in the pair's memo are reused; the missing
// configurations are replayed together in one fused trace walk
// (uarch.ReplayMultiWorkers over traceFor's trace, striped across workers
// goroutines) and memoized. Each configuration's result is independent of
// which others share the walk and of the worker count, so a partly
// memoized sweep is bit-identical to simulating all of cfgs.
func runTimedMulti(ctx context.Context, pr *Pair, clone bool, cfgs []uarch.Config, lim uarch.Limits, workers int) ([]uarch.Stats, error) {
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
	t, err := pr.trace(ctx, clone, lim.MaxInsts)
	if err != nil {
		return nil, err
	}
	got, err := uarch.ReplayMultiWorkers(ctx, t, todo, lim, workers)
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
	t, err := pr.trace(ctx, clone, budget)
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
