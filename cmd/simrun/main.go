// Command simrun runs one workload (or its clone) on the timing simulator
// under a named configuration and prints IPC, cache, branch, and power
// results.
//
// Usage:
//
//	simrun -workload crc32 [-clone] [-config base|2x-rob-lsq|half-l1d|
//	       2x-width|not-taken|in-order] [-insts N] [-warmup N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"perfclone/internal/dyntrace"
	"perfclone/internal/power"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/statsim"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	file := flag.String("file", "", "run a program from a .s file (prog.DumpAsm format) instead")
	useClone := flag.Bool("clone", false, "run the synthetic clone instead of the real program")
	useStatsim := flag.Bool("statsim", false, "estimate via statistical simulation (prior work, Section 2) instead of running a program")
	cfgName := flag.String("config", "base", "microarchitecture configuration")
	insts := flag.Uint64("insts", 500_000, "instruction budget")
	warmup := flag.Uint64("warmup", 150_000, "measurement warmup instructions (scaled to insts/4 when it would consume the budget)")
	flag.Parse()

	explicit := false
	flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "warmup" })
	switch {
	case !explicit:
		*warmup = uarch.DefaultWarmup(*insts)
	case *insts != 0 && *warmup >= *insts:
		fmt.Fprintf(os.Stderr, "simrun: -warmup %d leaves no timed instructions in -insts %d\n", *warmup, *insts)
		os.Exit(2)
	}
	if err := run(*name, *file, *useClone, *useStatsim, *cfgName, *insts, *warmup); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func findConfig(name string) (uarch.Config, error) {
	base := uarch.BaseConfig()
	if name == "base" || name == "" {
		return base, nil
	}
	for _, ch := range uarch.DesignChanges() {
		cfg := ch.Apply(base)
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return uarch.Config{}, fmt.Errorf("unknown config %q (want base or a design-change name)", name)
}

func run(name, file string, useClone, useStatsim bool, cfgName string, insts, warmup uint64) error {
	cfg, err := findConfig(cfgName)
	if err != nil {
		return err
	}
	var p *prog.Program
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		p, err = prog.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		p = w.Build()
	}
	ctx := context.Background()
	if useClone {
		prof, err := profile.CollectContext(ctx, p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
		if err != nil {
			return err
		}
		clone, err := synth.GenerateContext(ctx, prof, synth.Config{})
		if err != nil {
			return err
		}
		p = clone.Program
	}
	// One run of p serves either mode: the detailed run replays its
	// capture. Under -statsim the same run is also profiled
	// (profile.CaptureContext) and the rates are measured on the capture,
	// so the capture also covers the profiling budget. Replay and
	// MeasureRates stop at insts.
	captureInsts := insts
	if useStatsim && insts != 0 {
		captureInsts = max(insts, profile.DefaultMaxInsts)
	}
	var t *dyntrace.Trace
	var prof *profile.Profile
	if useStatsim {
		t, prof, err = profile.CaptureContext(ctx, p, captureInsts, profile.Options{MaxInsts: profile.DefaultMaxInsts})
	} else {
		t, err = dyntrace.CaptureContext(ctx, p, captureInsts)
	}
	if err != nil {
		return err
	}
	var st uarch.Stats
	if useStatsim {
		rates, err := statsim.MeasureRates(ctx, t, cfg, insts)
		if err != nil {
			return err
		}
		st, err = statsim.Estimate(ctx, prof, rates, cfg, statsim.Options{TraceLen: insts})
		if err != nil {
			return err
		}
		fmt.Printf("mode:      statistical simulation (rates: L1D %.2f%%, L2 %.2f%%, bpred %.2f%%)\n",
			100*rates.L1DMiss, 100*rates.L2Miss, 100*rates.Mispred)
	} else {
		st, err = uarch.ReplayContext(ctx, t, cfg, uarch.Limits{MaxInsts: insts, Warmup: warmup})
		if err != nil {
			return err
		}
	}
	bd := power.Estimate(st)
	fmt.Printf("program:   %s\n", p.Name)
	fmt.Printf("config:    %s (width %d, ROB %d, LSQ %d, %s, in-order=%v)\n",
		cfg.Name, cfg.Width, cfg.ROBSize, cfg.LSQSize, cfg.Predictor, cfg.InOrder)
	fmt.Printf("insts:     %d over %d cycles\n", st.Insts, st.Cycles)
	fmt.Printf("IPC:       %.4f\n", st.IPC())
	fmt.Printf("branch:    %.3f%% mispredicted (%d lookups)\n", 100*st.MispredRate(), st.BranchLookups)
	fmt.Printf("L1I:       %.4f%% miss (%d accesses)\n", 100*st.L1I.MissRate(), st.L1I.Accesses)
	fmt.Printf("L1D:       %.4f%% miss (%d accesses)\n", 100*st.L1D.MissRate(), st.L1D.Accesses)
	fmt.Printf("L2:        %.4f%% miss (%d accesses)\n", 100*st.L2.MissRate(), st.L2.Accesses)
	fmt.Printf("power:     %.2f avg (fetch %.0f, window %.0f, regfile %.0f, caches %.0f, alu %.0f, clock %.0f)\n",
		bd.AvgPower, bd.Fetch, bd.Window, bd.Regfile, bd.L1I+bd.L1D+bd.L2, bd.ALU, bd.Clock)
	return nil
}
