// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Figure 3 (stride coverage), Figures 4 and 5
// (28-configuration cache study), Table 2 (base configuration), Figures 6
// and 7 (base-configuration IPC and power), Table 3 and Figures 8 and 9
// (five design changes), plus the microarchitecture-dependent-baseline
// ablation that motivates the whole technique.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/fidelity"
	"perfclone/internal/power"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// Options configure an experiment run.
type Options struct {
	// Workloads restricts the benchmark set (nil = all 23).
	Workloads []string
	// ProfileInsts bounds profiling (0 = default 1M).
	ProfileInsts uint64
	// TimingWarmup and TimingInsts bound each timing-simulator run
	// (defaults 150k warmup, 500k total).
	TimingWarmup uint64
	TimingInsts  uint64
	// Parallel runs independent simulations on multiple goroutines
	// (default: serial when false).
	Parallel bool
	// Workers caps the worker pool used when Parallel is set
	// (0 = runtime.GOMAXPROCS(0)). Results are deterministic for any
	// worker count; only wall time changes.
	Workers int
	// Store durably caches captured traces and collected profiles, and
	// records finished grid cells as checkpoints (nil = everything stays
	// in memory and every run starts from scratch).
	Store *store.Store
	// Resume reuses checkpointed grid cells from a previous interrupted
	// run instead of recomputing them. Requires Store. Rows restored from
	// a checkpoint are byte-identical to freshly computed ones (pinned by
	// TestResumeByteIdentical).
	Resume bool
	// Progress, when non-nil, receives one Event per finished grid cell
	// and one stage-summary Event (Cell == "") per completed stage.
	// Callbacks are serialized; they may be invoked from worker
	// goroutines.
	Progress func(Event)
	// Log receives degradation warnings — checkpoint rows that could not
	// be reused or persisted on a non-strict store (default os.Stderr).
	Log io.Writer
	// Fidelity gates every figure on clone fidelity: Prepare runs each
	// generated clone through the closed-loop fidelity check (re-profile,
	// compare, bounded deterministic repair). A clone that still fails
	// degrades to the ungated first-attempt clone with a DEGRADED warning
	// on Log — the run completes and the figures stay comparable — unless
	// StrictFidelity aborts instead.
	Fidelity bool
	// StrictFidelity promotes a fidelity failure to a hard error carrying
	// the full per-attribute report. Implies Fidelity.
	StrictFidelity bool
	// FidelityTolerance uniformly scales the default per-attribute
	// tolerances (0 = 1.0; >1 loosens, <1 tightens).
	FidelityTolerance float64
	// StageTimeout bounds each experiment stage's wall clock: a stage
	// that exceeds it aborts with supervise.ErrDeadline as the context
	// cause (cmd/experiments maps that to exit 124) instead of hanging
	// the run. 0 = unbounded.
	StageTimeout time.Duration
	// TaskRetries gives every supervised task — a grid cell, a prepare
	// step — this many extra attempts after a transient failure, a
	// contained panic, or a watchdog kill. Retried attempts recompute
	// from scratch (never from a partial result), so results stay
	// deterministic. 0 = fail on the first error.
	TaskRetries int
	// Watchdog arms the stuck-task watchdog: a running task whose
	// heartbeat — ticked by every hot loop in the pipeline at least once
	// per 64 Ki instructions — stays silent this long is killed with
	// supervise.ErrStuck as the cause and retried under TaskRetries. The
	// quiet period must comfortably exceed one heartbeat interval on the
	// slowest machine in play. 0 = disabled.
	Watchdog time.Duration
	// Supervisor aggregates per-task outcomes (ok / recovered / retried /
	// stuck-killed / failed) across stages. cmd/experiments passes one so
	// its run-summary line spans the whole run; nil gives each stage a
	// private supervisor logging to Log.
	Supervisor *supervise.Supervisor
	// CheckpointPrefix namespaces this run's checkpoint files within the
	// store ("<prefix><stage>.jsonl"). The daemon sets it to the job ID
	// so concurrent jobs sharing one store never interleave checkpoint
	// logs; the CLI leaves it empty.
	CheckpointPrefix string
}

// Event is one progress notification: a finished grid cell, or — with
// Cell empty — a completed stage.
type Event struct {
	// Stage names the stage ("prepare", "fig4", "table3", …).
	Stage string
	// Cell identifies the finished cell ("" for a stage summary).
	Cell string
	// Done and Total count cells finished/planned in this stage.
	Done, Total int
	// Cached reports that the cell was restored from a checkpoint (or,
	// for prepare, that every artifact came from the store).
	Cached bool
	// Elapsed is the cell's compute time, or the stage's wall time for a
	// summary event.
	Elapsed time.Duration
}

func (o Options) withDefaults() Options {
	if len(o.Workloads) == 0 {
		o.Workloads = workloads.Names()
	}
	if o.ProfileInsts == 0 {
		o.ProfileInsts = profile.DefaultMaxInsts
	}
	if o.TimingInsts == 0 {
		o.TimingInsts = 500_000
	}
	if o.TimingWarmup == 0 {
		o.TimingWarmup = uarch.DefaultWarmup(o.TimingInsts)
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	return o
}

// Pair is one workload with its profile, synthetic clone, and the
// captured dynamic traces every downstream experiment replays.
type Pair struct {
	Name    string
	Real    *prog.Program
	Profile *profile.Profile
	Clone   *synth.Clone
	// RealTrace and CloneTrace are each program's dynamic instruction
	// stream, executed once in Prepare (with budget traceBudget) and
	// shared read-only by every cache sweep, timing run, and predictor
	// study — the interpreter never re-runs for these programs.
	RealTrace  *dyntrace.Trace
	CloneTrace *dyntrace.Trace

	// memo holds the pair's finished timing results and cache sweeps,
	// shared by every stage that runs on the pair (see memo.go).
	memo memo
}

// traceBudget is the capture length: the largest dynamic-stream prefix
// any experiment consumes (the Figure 4/5 cache sweep uses 2× the timing
// budget; every timing run uses at most 1×).
func traceBudget(opts Options) uint64 { return opts.TimingInsts * 2 }

// timingLimits is the window every timing run simulates.
func (o Options) timingLimits() uarch.Limits {
	return uarch.Limits{Warmup: o.TimingWarmup, MaxInsts: o.TimingInsts}
}

// traceFor returns a trace covering the first n instructions of p (n = 0:
// the complete run) — the single front end of every timing run, cache
// sweep, and predictor walk. It returns t itself when t covers the window:
// the trace holds the complete run (halted) or at least n instructions.
// Otherwise (a Pair built by hand, or options asking for more instructions
// than Prepare captured) it returns a fresh capture of p. Consumers
// downstream of traceFor only ever replay.
func traceFor(ctx context.Context, p *prog.Program, t *dyntrace.Trace, n uint64) (*dyntrace.Trace, error) {
	if t != nil && t.Covers(n) {
		return t, nil
	}
	return dyntrace.CaptureContext(ctx, p, n)
}

// Prepare profiles each selected workload, generates its clone, and
// captures both programs' dynamic traces for replay.
func Prepare(opts Options) ([]*Pair, error) {
	return PrepareContext(context.Background(), opts)
}

// PrepareContext is Prepare with cancellation and store reuse: when
// opts.Store is set, each workload's profile and both dynamic traces are
// looked up by (name, program hash, budget) before anything executes, and
// computed artifacts are written back, so a later run — or a crashed
// run's successor — loads instead of re-executing. Clone programs are
// regenerated from the (possibly cached) profile: synthesis is cheap and
// deterministic, so the clone's program hash keys its trace stably. The
// real program runs at most once when its profile fits in its trace, as
// at the default options (see realArtifacts).
// A cell that fails releases the trace it already holds; the caller
// closes the traces of the pairs it gets back.
// Prepare runs as stage "prepare", one cell per workload, without a
// checkpoint (see prepareStage); a cell whose artifacts all came from the
// store is reported cached.
func PrepareContext(ctx context.Context, opts Options) ([]*Pair, error) {
	return runStage(ctx, opts, prepareStage, opts.withDefaults().Workloads, func(ctx context.Context, c *cell, i int) (_ *Pair, err error) {
		opts := c.opts
		name := opts.Workloads[i]
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		p := w.Build()

		budget := traceBudget(opts)
		rt, prof, realHit, err := realArtifacts(ctx, opts, name, p, budget)
		if err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				rt.Close() // a store hit is a mapping
			}
		}()
		supervise.Beat(ctx)
		clone, err := generateClone(ctx, prof, opts)
		if err != nil {
			return nil, fmt.Errorf("clone %s: %w", name, err)
		}
		supervise.Beat(ctx)
		label := name + "-clone"
		ct, ctHit, err := opts.Store.Trace(label, clone.Program, budget, func() (*dyntrace.Trace, error) {
			return captureTrace(ctx, label, clone.Program, budget)
		})
		if err != nil {
			return nil, err
		}
		c.cached = realHit && ctHit
		return &Pair{
			Name: name, Real: p, Profile: prof, Clone: clone,
			RealTrace: rt, CloneTrace: ct,
		}, nil
	})
}

// realArtifacts returns the real program p's trace of budget
// instructions and its profile of opts.ProfileInsts, each loaded from
// opts.Store when the store holds it; hit reports that both were. Both
// are looked up before anything runs. When both miss and the profile
// fits in the trace, one run of p produces both (profile.CaptureContext);
// otherwise a missing trace is a capture and a missing profile a
// CollectContext of its own.
func realArtifacts(ctx context.Context, opts Options, name string, p *prog.Program, budget uint64) (rt *dyntrace.Trace, prof *profile.Profile, hit bool, err error) {
	st := opts.Store
	var rtHit, profHit bool
	var hash string
	if st != nil {
		if rt, rtHit, err = st.LoadTrace(name, p, budget); err != nil {
			return nil, nil, false, err
		}
		loaded := rt // a store hit is a mapping
		defer func() {
			if err != nil && loaded != nil {
				loaded.Close()
			}
		}()
		hash = store.ProgramHash(p)
		if prof, profHit, err = st.LoadProfile(name, hash, opts.ProfileInsts); err != nil {
			return nil, nil, false, err
		}
	}
	profOpts := profile.Options{MaxInsts: opts.ProfileInsts}
	supervise.Beat(ctx)
	switch {
	case !rtHit && !profHit && opts.ProfileInsts <= budget:
		if rt, prof, err = profile.CaptureContext(ctx, p, budget, profOpts); err != nil {
			return nil, nil, false, fmt.Errorf("trace %s: %w", name, err)
		}
	case !rtHit:
		if rt, err = captureTrace(ctx, name, p, budget); err != nil {
			return nil, nil, false, err
		}
	}
	if prof == nil {
		if prof, err = profile.CollectContext(ctx, p, profOpts); err != nil {
			return nil, nil, false, fmt.Errorf("profile %s: %w", name, err)
		}
	}
	if st != nil && !rtHit {
		if err = st.SaveTrace(name, rt, budget); err != nil {
			return nil, nil, false, err
		}
	}
	if st != nil && !profHit {
		if err = st.SaveProfile(name, hash, opts.ProfileInsts, prof); err != nil {
			return nil, nil, false, err
		}
	}
	return rt, prof, rtHit && profHit, nil
}

// captureTrace is dyntrace.CaptureContext with the artifact's label on
// its error.
func captureTrace(ctx context.Context, label string, p *prog.Program, budget uint64) (*dyntrace.Trace, error) {
	t, err := dyntrace.CaptureContext(ctx, p, budget)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", label, err)
	}
	return t, nil
}

// generateClone synthesizes one workload's clone, applying the fidelity
// gate when Options asks for it. Mirroring the store's strict/degraded
// convention: a clone that fails the gate aborts a StrictFidelity run
// with the full report, and otherwise degrades — with a greppable
// DEGRADED warning — to the deterministic ungated clone, so one
// hard-to-fit workload cannot take down a 23-workload figure run.
func generateClone(ctx context.Context, prof *profile.Profile, opts Options) (*synth.Clone, error) {
	if !opts.Fidelity && !opts.StrictFidelity {
		return synth.GenerateContext(ctx, prof, synth.Config{})
	}
	clone, rep, err := fidelity.GenerateContext(ctx, prof, synth.Config{}, fidelity.Options{Scale: opts.FidelityTolerance})
	if err == nil {
		if rep.Attempt > 1 {
			fmt.Fprintf(opts.Log, "experiments: fidelity repaired %s on attempt %d (seed %d)\n",
				prof.Name, rep.Attempt, rep.Seed)
		}
		return clone, nil
	}
	if supervise.Cause(ctx) != nil {
		// A cancelled gate is not a fidelity failure; don't degrade, stop.
		return nil, err
	}
	if opts.StrictFidelity {
		return nil, err
	}
	fmt.Fprintf(opts.Log, "experiments: DEGRADED: %v\nexperiments: using the unvalidated clone of %s\n", err, prof.Name)
	return synth.GenerateContext(ctx, prof, synth.Config{})
}

// EffectiveWorkers reports the run's total worker budget: 1 unless
// Parallel is set, else Options.Workers when positive, else
// runtime.GOMAXPROCS(0). Every layer of parallelism in a run — the
// pool over a stage's cells and the per-cell fused-replay workers — is
// carved out of this one number.
func (o Options) EffectiveWorkers() int {
	if !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerBudget splits the run's total worker budget across a stage's two
// levels of parallelism: outer goroutines iterate the stage's cells
// (workloads) and each cell's fused replay stripes its configurations
// over inner goroutines. Outer parallelism is preferred — whole cells
// are perfectly independent — and inner workers only soak up budget the
// cell count cannot use (e.g. 8 workers × 2 workloads → outer 2,
// inner 4). outer×inner never exceeds the total, so a stage never
// oversubscribes the requested worker count no matter how the grid is
// shaped. Both results are ≥ 1.
func WorkerBudget(opts Options, cells int) (outer, inner int) {
	total := opts.EffectiveWorkers()
	if total <= 1 {
		return 1, 1
	}
	outer = total
	if cells > 0 && outer > cells {
		outer = cells
	}
	inner = total / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// --- Figure 3 ---

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	Workload string
	// Coverage is the fraction of dynamic memory references following
	// their static instruction's single dominant stride.
	Coverage float64
	// UniqueStreams counts distinct stream sources (Section 5.1 relates
	// clone accuracy to this).
	UniqueStreams int
}

// Fig3 reproduces Figure 3.
func Fig3(pairs []*Pair) []Fig3Row {
	out := make([]Fig3Row, 0, len(pairs))
	for _, pr := range pairs {
		out = append(out, Fig3Row{
			Workload:      pr.Name,
			Coverage:      pr.Profile.StrideCoverage(),
			UniqueStreams: pr.Profile.UniqueStreams(),
		})
	}
	return out
}

// --- Figures 4 and 5 ---

// Fig4Row is one workload's cache-tracking result.
type Fig4Row struct {
	Workload string
	// R is Pearson's correlation between real and clone
	// misses-per-instruction across the 27 non-reference configurations,
	// relative to the 256 B direct-mapped reference (Section 5.1).
	R float64
	// RealMPI and CloneMPI are misses-per-instruction for all 28
	// configurations, in cache.Sweep28 order.
	RealMPI  []float64
	CloneMPI []float64
}

// CacheMPI measures misses-per-instruction for every configuration in
// cfgs over the first maxInsts instructions of a captured trace (0 = the
// whole trace): the data-reference stream goes through all caches in one
// walk (replayRefs), polling ctx as it goes. No functional execution is
// involved.
func CacheMPI(ctx context.Context, t *dyntrace.Trace, cfgs []cache.Config, maxInsts uint64) ([]float64, error) {
	rs, err := cache.NewReplaySet(cfgs)
	if err != nil {
		return nil, err
	}
	insts := t.Insts()
	if maxInsts > 0 && insts > maxInsts {
		insts = maxInsts
	}
	if insts == 0 {
		return nil, fmt.Errorf("experiments: %s trace has no instructions; misses-per-instruction is undefined", t.Program().Name)
	}
	if err := replayRefs(ctx, rs, t, insts); err != nil {
		return nil, err
	}
	mpi := make([]float64, len(cfgs))
	for i, st := range rs.Stats() {
		mpi[i] = float64(st.Misses) / float64(insts)
	}
	return mpi, nil
}

// replayRefs feeds the data references of the first n instructions of t
// (0 = the whole trace) through rs, one walk chunk at a time.
func replayRefs(ctx context.Context, rs *cache.ReplaySet, t *dyntrace.Trace, n uint64) error {
	for w := t.Walk(n); !w.Done(); {
		c, err := w.Next(ctx)
		if err != nil {
			return err
		}
		if err := rs.AccessStreamContext(ctx, c.Addrs, c.Stores); err != nil {
			return err
		}
	}
	return nil
}

// Fig4Context reproduces Figure 4: per-workload Pearson correlation of
// real vs clone misses-per-instruction deltas across the 28 cache
// configurations, with per-workload checkpointing (stage "fig4", one cell
// per workload).
func Fig4Context(ctx context.Context, pairs []*Pair, opts Options) ([]Fig4Row, error) {
	return runStage(ctx, opts, "fig4", pairNames(pairs), func(ctx context.Context, c *cell, i int) (Fig4Row, error) {
		pr := pairs[i]
		real, err := sweep28(ctx, pr, false, traceBudget(c.opts))
		if err != nil {
			return Fig4Row{}, err
		}
		clone, err := sweep28(ctx, pr, true, traceBudget(c.opts))
		if err != nil {
			return Fig4Row{}, err
		}
		r, err := stats.Pearson(relToRef(clone), relToRef(real))
		if err != nil {
			return Fig4Row{}, fmt.Errorf("%s: %w", pr.Name, err)
		}
		return Fig4Row{Workload: pr.Name, R: r, RealMPI: real, CloneMPI: clone}, nil
	})
}

// relToRef returns each configuration's value relative to configuration
// 0, the 256 B direct-mapped reference of Section 5.1: v[k]-v[0] for k
// = 1..len(v)-1.
func relToRef(v []float64) []float64 {
	out := make([]float64, len(v)-1)
	for k := 1; k < len(v); k++ {
		out[k-1] = v[k] - v[0]
	}
	return out
}

// Fig5Point is one cache configuration's average rank pair (Figure 5).
type Fig5Point struct {
	Config    string
	RealRank  float64
	CloneRank float64
}

// Fig5 reproduces Figure 5 from Fig4's per-workload MPI matrices: each
// configuration's rank (1 = fewest misses), averaged over workloads. Like
// the stats package it errors (rather than dividing by zero into NaN)
// when rows is empty.
func Fig5(rows []Fig4Row) ([]Fig5Point, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: Fig5 needs at least one Fig4 row; average rank over zero workloads is undefined")
	}
	cfgs := cache.Sweep28()
	n := len(cfgs)
	sumR := make([]float64, n)
	sumC := make([]float64, n)
	for _, row := range rows {
		rr := stats.Rank(row.RealMPI)
		rc := stats.Rank(row.CloneMPI)
		for k := 0; k < n; k++ {
			sumR[k] += rr[k]
			sumC[k] += rc[k]
		}
	}
	out := make([]Fig5Point, n)
	for k := 0; k < n; k++ {
		out[k] = Fig5Point{
			Config:    cfgs[k].Name,
			RealRank:  sumR[k] / float64(len(rows)),
			CloneRank: sumC[k] / float64(len(rows)),
		}
	}
	return out, nil
}

// --- Figures 6 and 7 ---

// BaseRow is one workload's base-configuration comparison.
type BaseRow struct {
	Workload   string
	RealIPC    float64
	CloneIPC   float64
	IPCErr     float64 // |clone-real|/real
	RealPower  float64
	ClonePower float64
	PowerErr   float64
}

// Fig6and7Context reproduces Figures 6 and 7: absolute IPC and power of
// real benchmark vs clone on the Table 2 base configuration, with
// per-workload checkpointing (stage "fig6and7").
func Fig6and7Context(ctx context.Context, pairs []*Pair, opts Options) ([]BaseRow, error) {
	return runStage(ctx, opts, "fig6and7", pairNames(pairs), func(ctx context.Context, c *cell, i int) (BaseRow, error) {
		pr := pairs[i]
		str, sts, err := pr.timeBoth(ctx, c, uarch.BaseConfig())
		if err != nil {
			return BaseRow{}, err
		}
		realPow := power.Estimate(str[0]).AvgPower
		clonePow := power.Estimate(sts[0]).AvgPower
		ipcErr, err := stats.AbsRelError(sts[0].IPC(), str[0].IPC())
		if err != nil {
			return BaseRow{}, err
		}
		powErr, err := stats.AbsRelError(clonePow, realPow)
		if err != nil {
			return BaseRow{}, err
		}
		return BaseRow{
			Workload:  pr.Name,
			RealIPC:   str[0].IPC(),
			CloneIPC:  sts[0].IPC(),
			IPCErr:    ipcErr,
			RealPower: realPow, ClonePower: clonePow, PowerErr: powErr,
		}, nil
	})
}

// --- Table 3, Figures 8 and 9 ---

// DesignRow is one (workload, design change) measurement.
type DesignRow struct {
	Workload string
	Change   string
	// Metrics at the base and changed configuration.
	RealBaseIPC, RealIPC   float64
	CloneBaseIPC, CloneIPC float64
	RealBasePow, RealPow   float64
	CloneBasePow, ClonePow float64
	// RelErrIPC and RelErrPow are the paper's RE_X.
	RelErrIPC float64
	RelErrPow float64
}

// Table3Summary is one Table 3 row: a design change's relative errors
// averaged over workloads.
type Table3Summary struct {
	Change        string
	AvgRelErrIPC  float64
	AvgRelErrPow  float64
	WorstRelErr   float64
	RealSpeedup   float64 // mean real IPC ratio vs base (context)
	CloneSpeedup  float64
	RealPowRatio  float64
	ClonePowRatio float64
}

// table3Base is the baseline measurement for one workload; its fields
// are exported so the cell survives the JSON round trip.
type table3Base struct {
	RealIPC, CloneIPC float64
	RealPow, ClonePow float64
}

// table3Cell is the checkpointed payload for one workload: its baseline
// plus one row per design change. The whole cell is produced by two
// fused replays (real and clone across base + all changes), so it is
// also the natural checkpoint unit — a restored cell skips both walks.
type table3Cell struct {
	Base table3Base
	Rows []DesignRow
}

// Table3Context reproduces Table 3 (and provides the Figures 8/9 series
// via the returned per-workload rows for the "double width" change), with
// checkpointing: one cell per workload in stage "table3", each cell
// holding the baseline and every design-change row. A workload's entire
// sweep (base + all five changes, real and clone) runs as two fused
// replays over its traces — the worker pool parallelizes across
// workloads, not (workload × config) cells, so each trace is decoded
// exactly once per program.
func Table3Context(ctx context.Context, pairs []*Pair, opts Options) ([]DesignRow, []Table3Summary, error) {
	base := uarch.BaseConfig()
	changes := uarch.DesignChanges()
	// cfgs[0] is the base; cfgs[1+ci] is design change ci.
	cfgs := make([]uarch.Config, 1+len(changes))
	cfgs[0] = base
	for ci, ch := range changes {
		cfgs[1+ci] = ch.Apply(base)
	}
	cells, err := runStage(ctx, opts, "table3", pairNames(pairs), func(ctx context.Context, c *cell, i int) (table3Cell, error) {
		pr := pairs[i]
		str, sts, err := pr.timeBoth(ctx, c, cfgs...)
		if err != nil {
			return table3Cell{}, err
		}
		b := table3Base{
			RealIPC: str[0].IPC(), CloneIPC: sts[0].IPC(),
			RealPow: power.Estimate(str[0]).AvgPower, ClonePow: power.Estimate(sts[0]).AvgPower,
		}
		rows := make([]DesignRow, len(changes))
		for ci, ch := range changes {
			stR, stC := str[1+ci], sts[1+ci]
			realPow := power.Estimate(stR).AvgPower
			clonePow := power.Estimate(stC).AvgPower
			reIPC, err := stats.RelativeError(b.RealIPC, stR.IPC(), b.CloneIPC, stC.IPC())
			if err != nil {
				return table3Cell{}, err
			}
			rePow, err := stats.RelativeError(b.RealPow, realPow, b.ClonePow, clonePow)
			if err != nil {
				return table3Cell{}, err
			}
			rows[ci] = DesignRow{
				Workload:     pr.Name,
				Change:       ch.Name,
				RealBaseIPC:  b.RealIPC,
				RealIPC:      stR.IPC(),
				CloneBaseIPC: b.CloneIPC,
				CloneIPC:     stC.IPC(),
				RealBasePow:  b.RealPow,
				RealPow:      realPow,
				CloneBasePow: b.ClonePow,
				ClonePow:     clonePow,
				RelErrIPC:    reIPC,
				RelErrPow:    rePow,
			}
		}
		return table3Cell{Base: b, Rows: rows}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Change-major, exactly as the flat grid used to emit: all workloads
	// for change 0, then change 1, and so on.
	perPair := make([][]DesignRow, len(cells))
	for i, c := range cells {
		perPair[i] = c.Rows
	}
	rows := configMajor(perPair, len(changes))
	summaries := make([]Table3Summary, len(changes))
	for ci, ch := range changes {
		var sIPC, sPow, worst float64
		var rs, cs, rp, cp float64
		for _, r := range rows[ci*len(pairs) : (ci+1)*len(pairs)] {
			sIPC += r.RelErrIPC
			sPow += r.RelErrPow
			if r.RelErrIPC > worst {
				worst = r.RelErrIPC
			}
			rs += r.RealIPC / r.RealBaseIPC
			cs += r.CloneIPC / r.CloneBaseIPC
			rp += r.RealPow / r.RealBasePow
			cp += r.ClonePow / r.CloneBasePow
		}
		n := float64(len(pairs))
		summaries[ci] = Table3Summary{
			Change:        ch.Name,
			AvgRelErrIPC:  sIPC / n,
			AvgRelErrPow:  sPow / n,
			WorstRelErr:   worst,
			RealSpeedup:   rs / n,
			CloneSpeedup:  cs / n,
			RealPowRatio:  rp / n,
			ClonePowRatio: cp / n,
		}
	}
	return rows, summaries, nil
}

// Fig8and9Rows extracts the Figures 8/9 series (per-workload IPC speedup
// and power increase for the double-width change) from Table 3 rows.
func Fig8and9Rows(rows []DesignRow) []DesignRow {
	var out []DesignRow
	for _, r := range rows {
		if r.Change == "double width" {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}
