// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run NAME] [-workloads a,b,c] [-workers N] [-insts N]
//	            [-store DIR] [-resume] [-strict-store] [-doctor] [-progress]
//	            [-fidelity] [-strict-fidelity] [-fidelity-tolerance F]
//	            [-stage-timeout D] [-task-retries N] [-watchdog D]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// -run names one entry of the experiment registry (experiments.Run):
// all (the default: the paper's figures and tables), fig3 through fig9,
// fig6and7, table3, ablation, the extension studies predsweep, l2sweep,
// prefetch, statsim and inputs, or ext (all five extensions). The
// perfcloned daemon serves the same names and its experiment artifacts
// are byte-for-byte this command's stdout. An unknown name is a usage
// error.
//
// -workers N sizes the run's one worker budget (0, the default, is
// GOMAXPROCS; -workers 1 is the serial run). Each stage runs up to N of
// its cells (workloads) at once; a cell left two workers by that split
// times its real program and its clone concurrently. The output is
// byte-identical at every worker count.
//
// With -fidelity, every generated clone passes through the closed-loop
// fidelity gate (re-profile, compare against the target profile, bounded
// deterministic repair) before any figure consumes it; a clone that
// still fails degrades to the ungated clone with a DEGRADED warning.
// -strict-fidelity aborts the run instead, with the full per-attribute
// report. -fidelity-tolerance scales the default tolerances uniformly.
//
// With -store, captured traces, collected profiles, and finished grid
// cells persist under DIR; an interrupted run (^C) reports how far it
// got and -resume picks up from the checkpoints, skipping every cell
// that already finished.
//
// A corrupt or unreadable artifact is normally quarantined (under
// DIR/quarantine/, with a "store: QUARANTINED" warning on stderr) and
// recomputed; -strict-store turns it into a hard error instead. -doctor
// runs the store's verify-and-repair pass — every artifact is
// re-integrity-checked, failures are quarantined, stale temp files and
// locks are swept — and exits without running experiments.
//
// Every experiment stage and grid cell runs under the supervision
// substrate (internal/supervise): -stage-timeout bounds each stage's
// wall clock (expiry exits 124), -task-retries grants failed, panicked,
// or stuck-killed cells extra attempts, and -watchdog arms a per-task
// heartbeat monitor that kills and retries a worker whose heartbeat
// stays quiet that long. Per-task outcomes are aggregated into one
// greppable "supervise: tasks ..." summary line on stderr.
//
// Exit codes: 0 on success (including a -doctor pass that quarantined
// artifacts — the repair succeeded, and a run whose wedged or panicked
// cells all recovered), 1 on error, 2 on usage errors, 124 when a
// -stage-timeout budget expired, 130 when interrupted by ^C/SIGINT,
// 143 when drained by SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"perfclone/internal/experiments"
	"perfclone/internal/sigdrain"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
)

func main() {
	run := flag.String("run", "all", "experiment to run: "+strings.Join(experiments.RunNames(), ", "))
	wl := flag.String("workloads", "", "comma-separated workload subset (default: all 23)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	insts := flag.Uint64("insts", 0, "timing-simulation instruction budget per run (default 500000)")
	storeDir := flag.String("store", "", "directory for the durable trace/profile store and checkpoints")
	resume := flag.Bool("resume", false, "skip grid cells checkpointed by a previous -store run (requires -store)")
	strictStore := flag.Bool("strict-store", false, "abort on corrupt or unreadable store artifacts instead of quarantining and recomputing")
	doctor := flag.Bool("doctor", false, "verify and repair the -store directory, then exit")
	progress := flag.Bool("progress", false, "print one line per finished grid cell (stage summaries always print)")
	fidelity := flag.Bool("fidelity", false, "gate every clone on the closed-loop fidelity check (failures degrade with a warning)")
	strictFidelity := flag.Bool("strict-fidelity", false, "abort when a clone fails the fidelity gate instead of degrading (implies -fidelity)")
	fidelityTol := flag.Float64("fidelity-tolerance", 0, "scale the default fidelity tolerances uniformly (>1 loosens, <1 tightens)")
	stageTimeout := flag.Duration("stage-timeout", 0, "wall-clock budget per experiment stage (0 = unbounded; expiry exits 124)")
	taskRetries := flag.Int("task-retries", 0, "extra attempts for a failed, panicked, or stuck-killed grid cell")
	watchdog := flag.Duration("watchdog", 0, "kill and retry a task whose heartbeat stays quiet this long (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if err := experiments.CheckRun(*run); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -run:", err)
		os.Exit(2)
	}
	if *fidelityTol < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -fidelity-tolerance must be positive")
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -workers must be >= 0 (0 = GOMAXPROCS)")
		os.Exit(2)
	}
	if *stageTimeout < 0 || *watchdog < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -stage-timeout and -watchdog must be >= 0")
		os.Exit(2)
	}
	if *taskRetries < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -task-retries must be >= 0")
		os.Exit(2)
	}

	// Profiling brackets the whole run (capture, synthesis, and the
	// replay-driven grids), so a profile shows where an experiments
	// invocation actually spends its time.
	finishProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		stopCPU := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		prev := finishProfiles
		finishProfiles = func() { stopCPU(); prev() }
	}
	if *memProfile != "" {
		prev := finishProfiles
		finishProfiles = func() {
			prev()
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
	}
	// os.Exit skips defers, so every exit path below calls finishProfiles
	// explicitly; an interrupted or failed run still gets its profile.
	defer finishProfiles()

	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -store")
		os.Exit(2)
	}
	if *doctor && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -doctor requires -store")
		os.Exit(2)
	}

	// One Supervisor spans the whole run so the summary line covers every
	// stage; PERFCLONE_WEDGE lets subprocess tests wedge a named task's
	// first attempt to exercise the watchdog end to end.
	super := supervise.New(supervise.Options{Log: os.Stderr, Wedge: os.Getenv("PERFCLONE_WEDGE")})
	opts := experiments.Options{
		Parallel: true, Workers: *workers, TimingInsts: *insts, Resume: *resume,
		Fidelity: *fidelity, StrictFidelity: *strictFidelity, FidelityTolerance: *fidelityTol,
		StageTimeout: *stageTimeout, TaskRetries: *taskRetries, Watchdog: *watchdog,
		Supervisor: super,
	}
	if *wl != "" {
		opts.Workloads = strings.Split(*wl, ",")
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.WithStrict(*strictStore))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opts.Store = st
	}

	if *doctor {
		rep, err := opts.Store.Doctor()
		fmt.Fprintf(os.Stderr, "store: doctor scanned %d artifact(s): %d healthy, %d quarantined, %d stale file(s) removed\n",
			rep.Scanned, rep.Healthy, len(rep.Quarantined), len(rep.Cleaned))
		for _, q := range rep.Quarantined {
			fmt.Fprintf(os.Stderr, "store: doctor quarantined %s\n", q)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		// Quarantining is a successful repair (the next run recomputes),
		// so the pass still exits 0.
		return
	}

	// First ^C or SIGTERM cancels the run cooperatively: workers stop
	// claiming cells, in-flight simulations abort at their next context
	// poll, and every finished cell is already checkpointed. The handler
	// disarms after the first signal, so a second one kills the process
	// outright; the exit code tells the two apart (130 vs 143).
	ctx, drain := sigdrain.Notify(context.Background())
	defer drain.Stop()

	tr := &tracker{verbose: *progress}
	opts.Progress = tr.observe

	// Greppable counters line: the worker budget every stage carves its
	// cells×sides split from (see experiments.WorkerBudget).
	fmt.Fprintf(os.Stderr, "experiments: workers %d effective (requested %d)\n",
		opts.EffectiveWorkers(), *workers)

	err := experiments.Run(ctx, *run, opts, os.Stdout)
	if opts.Store != nil {
		c := opts.Store.Counters()
		fmt.Fprintf(os.Stderr, "store: traces %d hits / %d misses; profiles %d hits / %d misses; %d quarantined\n",
			c.TraceHits, c.TraceMisses, c.ProfileHits, c.ProfileMisses, c.Quarantined)
	}
	fmt.Fprintln(os.Stderr, super.Summary())
	if err != nil {
		if errors.Is(err, supervise.ErrDeadline) || errors.Is(err, context.DeadlineExceeded) {
			done, total := tr.cells()
			fmt.Fprintf(os.Stderr, "experiments: stage deadline exceeded (%v); resumable at %d/%d cells\n",
				*stageTimeout, done, total)
			fmt.Fprintln(os.Stderr, "experiments:", err)
			finishProfiles()
			os.Exit(124)
		}
		if errors.Is(err, context.Canceled) {
			done, total := tr.cells()
			fmt.Fprintf(os.Stderr, "experiments: interrupted; resumable at %d/%d cells", done, total)
			if opts.Store != nil {
				fmt.Fprintf(os.Stderr, " — re-run with -store %s -resume to continue", *storeDir)
			} else {
				fmt.Fprint(os.Stderr, " — progress was not persisted (no -store)")
			}
			fmt.Fprintln(os.Stderr)
			finishProfiles()
			// 130 for ^C, 143 for SIGTERM (128+signo).
			os.Exit(drain.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		finishProfiles()
		os.Exit(1)
	}
}

// tracker aggregates progress events into per-stage and whole-run cell
// counts for the stderr report.
type tracker struct {
	verbose bool

	mu     sync.Mutex
	stages []string
	counts map[string][2]int // stage -> {done, total}
}

func (tr *tracker) observe(ev experiments.Event) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.counts == nil {
		tr.counts = make(map[string][2]int)
	}
	if _, ok := tr.counts[ev.Stage]; !ok {
		tr.stages = append(tr.stages, ev.Stage)
	}
	tr.counts[ev.Stage] = [2]int{ev.Done, ev.Total}
	if ev.Cell == "" {
		fmt.Fprintf(os.Stderr, "[%s] %d/%d cells in %s\n", ev.Stage, ev.Done, ev.Total, ev.Elapsed.Round(1e6))
		return
	}
	if tr.verbose {
		state := "computed"
		if ev.Cached {
			state = "cached"
		}
		fmt.Fprintf(os.Stderr, "[%s] %s: %s (%d/%d, %s)\n", ev.Stage, ev.Cell, state, ev.Done, ev.Total, ev.Elapsed.Round(1e6))
	}
}

// cells sums finished and planned cells across every stage started so far.
func (tr *tracker) cells() (done, total int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.stages {
		c := tr.counts[s]
		done += c[0]
		total += c[1]
	}
	return done, total
}
