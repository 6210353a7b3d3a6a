package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// InputRow quantifies input-set assimilation for one kernel: a clone
// generated from the small input compared against the real program on the
// small and on the large input. The paper (Section 3.2) notes "one can
// think of the input set being assimilated into the synthetic benchmark
// clone" — so the small-input clone should match the small-input run and
// may drift from the large-input run when the input changes behaviour.
type InputRow struct {
	Workload string
	// IPC of the real program on each input and of the small-input
	// clone.
	RealSmallIPC float64
	RealLargeIPC float64
	CloneIPC     float64
	// ErrVsSmall and ErrVsLarge are the clone's absolute relative errors
	// against each input's real run.
	ErrVsSmall float64
	ErrVsLarge float64
	// LargeCloneErr is a large-input clone's error against the
	// large-input run (re-profiling restores fidelity).
	LargeCloneErr float64
}

// InputSensitivityContext runs the assimilation study over every kernel
// that has a large-input variant, with per-kernel checkpointing (stage
// "inputs"). Each of the four programs is captured once and replayed on
// the base configuration; the two real captures are also the profiles'
// executions.
func InputSensitivityContext(ctx context.Context, opts Options) ([]InputRow, error) {
	variants := workloads.Large()
	names := make([]string, len(variants))
	for i, large := range variants {
		names[i] = strings.TrimSuffix(large.Name, "-large")
	}
	return runStage(ctx, opts, "inputs", names, func(ctx context.Context, c *cell, i int) (InputRow, error) {
		small, err := workloads.ByName(names[i])
		if err != nil {
			return InputRow{}, err
		}
		smallProg := small.Build()
		largeProg := variants[i].Build()

		// Each real program runs once: its capture serves the profile and,
		// through its prefix, the timing replay.
		lim := c.opts.timingLimits()
		profOpts := profile.Options{MaxInsts: c.opts.ProfileInsts}
		budget := max(profOpts.MaxInsts, lim.MaxInsts)
		var traces [4]*dyntrace.Trace // small, large, and their clones
		for k, p := range []*prog.Program{smallProg, largeProg} {
			var prof *profile.Profile
			if traces[k], prof, err = profile.CaptureContext(ctx, p, budget, profOpts); err != nil {
				return InputRow{}, err
			}
			clone, err := synth.GenerateContext(ctx, prof, synth.Config{})
			if err != nil {
				return InputRow{}, err
			}
			if traces[2+k], err = dyntrace.CaptureContext(ctx, clone.Program, lim.MaxInsts); err != nil {
				return InputRow{}, err
			}
		}
		var st [4]uarch.Stats
		for k, t := range traces {
			if st[k], err = uarch.ReplayContext(ctx, t, uarch.BaseConfig(), lim); err != nil {
				return InputRow{}, err
			}
		}
		rs, rl, cs, cl := st[0], st[1], st[2], st[3]

		evs, err := stats.AbsRelError(cs.IPC(), rs.IPC())
		if err != nil {
			return InputRow{}, err
		}
		evl, err := stats.AbsRelError(cs.IPC(), rl.IPC())
		if err != nil {
			return InputRow{}, err
		}
		lce, err := stats.AbsRelError(cl.IPC(), rl.IPC())
		if err != nil {
			return InputRow{}, err
		}
		return InputRow{
			Workload:      names[i],
			RealSmallIPC:  rs.IPC(),
			RealLargeIPC:  rl.IPC(),
			CloneIPC:      cs.IPC(),
			ErrVsSmall:    evs,
			ErrVsLarge:    evl,
			LargeCloneErr: lce,
		}, nil
	})
}

// PrintInputSensitivity renders the assimilation study.
func PrintInputSensitivity(w io.Writer, rows []InputRow) {
	fmt.Fprintln(w, "Extension — input-set assimilation (clone generated from the small input)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %12s\n",
		"kernel", "real-sm", "real-lg", "clone-sm", "err-vs-sm", "err-vs-lg", "lg-clone-err")
	var vs, vl, lc []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.3f %10.3f %10.3f %9.1f%% %9.1f%% %11.1f%%\n",
			r.Workload, r.RealSmallIPC, r.RealLargeIPC, r.CloneIPC,
			100*r.ErrVsSmall, 100*r.ErrVsLarge, 100*r.LargeCloneErr)
		vs = append(vs, r.ErrVsSmall)
		vl = append(vl, r.ErrVsLarge)
		lc = append(lc, r.LargeCloneErr)
	}
	fmt.Fprintf(w, "%-10s %32s %9.1f%% %9.1f%% %11.1f%%\n", "average", "",
		100*stats.Mean(vs), 100*stats.Mean(vl), 100*stats.Mean(lc))
	fmt.Fprintln(w, "(Section 3.2's assimilation property: a clone tracks the input it was")
	fmt.Fprintln(w, " profiled with, so its error against the other input grows; note that")
	fmt.Fprintln(w, " larger working sets are also intrinsically harder to clone)")
}
