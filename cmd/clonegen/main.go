// Command clonegen profiles a workload and generates its synthetic
// benchmark clone, emitting the C-with-asm source (the paper's
// distribution format) plus the synthesis metadata.
//
// Usage:
//
//	clonegen -workload crc32 [-o clone.c] [-blocks N] [-iters N] [-seed N]
//	         [-disasm] [-validate] [-tolerance F] [-max-repair N]
//	         [-report FILE] [-stage-timeout D] [-task-retries N] [-watchdog D]
//
// With -validate, the generated clone is re-profiled and compared
// against the target profile attribute by attribute (instruction mix,
// dependency distances, stride coverage, branch behaviour, SFG
// block frequencies); a failing clone is regenerated with derived seeds
// up to -max-repair times. Every attribute verdict prints to stderr as a
// greppable "fidelity: PASS|FAIL <attr>" line, -report writes the
// structured JSON report, and a clone that never passes is an error
// (exit 1) — nothing is emitted. -tolerance scales the default
// per-attribute tolerances uniformly (>1 loosens, <1 tightens).
//
// The profile and generate steps run as supervised tasks
// (internal/supervise): -stage-timeout bounds each step's wall clock
// (expiry exits 124), -task-retries grants a failed or panicked step
// extra attempts, and -watchdog kills and retries a step whose
// heartbeat stays quiet that long. Exit codes: 0 on success, 1 on
// error, 2 on usage errors, 124 when a -stage-timeout budget expired,
// 130 when interrupted by ^C/SIGINT, 143 when drained by SIGTERM.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"perfclone/internal/codegen"
	"perfclone/internal/fidelity"
	"perfclone/internal/profile"
	"perfclone/internal/sigdrain"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

type options struct {
	name, profIn, profOut, out, dialect string
	blocks, iters                       int
	seed, maxInsts                      uint64
	disasm                              bool
	validate                            bool
	tolerance                           float64
	maxRepair                           int
	report                              string
	stageTimeout, watchdog              time.Duration
	taskRetries                         int
}

func main() {
	var o options
	flag.StringVar(&o.name, "workload", "", "workload to clone (see cmd/profiler -list)")
	flag.StringVar(&o.profIn, "profile-in", "", "generate from a saved profile JSON instead of a workload")
	flag.StringVar(&o.profOut, "profile-out", "", "also save the measured profile as JSON (the vendor-side artifact)")
	flag.StringVar(&o.out, "o", "", "write the generated C source to this file (default stdout)")
	flag.IntVar(&o.blocks, "blocks", 0, "target basic-block count (default adaptive)")
	flag.IntVar(&o.iters, "iters", 0, "outer-loop iterations (default matches profiled length)")
	flag.Uint64Var(&o.seed, "seed", 1, "synthesis PRNG seed")
	flag.Uint64Var(&o.maxInsts, "profile-insts", profile.DefaultMaxInsts, "dynamic instructions to profile")
	flag.BoolVar(&o.disasm, "disasm", false, "emit ISA disassembly instead of C")
	flag.StringVar(&o.dialect, "dialect", "generic", "asm dialect: generic, riscv, arm64")
	flag.BoolVar(&o.validate, "validate", false, "re-profile the clone and gate it on fidelity to the target profile")
	flag.Float64Var(&o.tolerance, "tolerance", 0, "scale the default fidelity tolerances uniformly (>1 loosens, <1 tightens)")
	flag.IntVar(&o.maxRepair, "max-repair", 0, "regeneration attempts after a failed check (default 3, negative = none)")
	flag.StringVar(&o.report, "report", "", "write the JSON fidelity report to this file (requires -validate)")
	flag.DurationVar(&o.stageTimeout, "stage-timeout", 0, "wall-clock budget per step (0 = unbounded; expiry exits 124)")
	flag.IntVar(&o.taskRetries, "task-retries", 0, "extra attempts for a failed or panicked step")
	flag.DurationVar(&o.watchdog, "watchdog", 0, "kill and retry a step whose heartbeat stays quiet this long (0 = off)")
	flag.Parse()

	if o.tolerance < 0 {
		fmt.Fprintln(os.Stderr, "clonegen: -tolerance must be positive")
		os.Exit(2)
	}
	if o.report != "" && !o.validate {
		fmt.Fprintln(os.Stderr, "clonegen: -report requires -validate")
		os.Exit(2)
	}
	if o.stageTimeout < 0 || o.watchdog < 0 {
		fmt.Fprintln(os.Stderr, "clonegen: -stage-timeout and -watchdog must be >= 0")
		os.Exit(2)
	}
	if o.taskRetries < 0 {
		fmt.Fprintln(os.Stderr, "clonegen: -task-retries must be >= 0")
		os.Exit(2)
	}

	// First ^C or SIGTERM cancels the run cooperatively; the exit code
	// tells the two apart (130 vs 143).
	ctx, drain := sigdrain.Notify(context.Background())
	defer drain.Stop()
	super := supervise.New(supervise.Options{Log: os.Stderr, Wedge: os.Getenv("PERFCLONE_WEDGE")})
	err := run(ctx, o, super)
	if o.stageTimeout > 0 || o.watchdog > 0 || o.taskRetries > 0 {
		fmt.Fprintln(os.Stderr, super.Summary())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clonegen:", err)
		switch {
		case errors.Is(err, supervise.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
			os.Exit(124)
		case errors.Is(err, context.Canceled):
			// 130 for ^C, 143 for SIGTERM (128+signo).
			os.Exit(drain.ExitCode())
		}
		os.Exit(1)
	}
}

// loadOrCollect obtains the workload profile from a saved JSON file or by
// profiling a named workload.
func loadOrCollect(ctx context.Context, name, profIn string, maxInsts uint64) (*profile.Profile, error) {
	if profIn != "" {
		f, err := os.Open(profIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return profile.Load(f)
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return profile.CollectContext(ctx, w.Build(), profile.Options{MaxInsts: maxInsts})
}

// generate synthesizes the clone, through the closed fidelity loop when
// -validate is set. The JSON report is written even when the gate fails,
// so a CI run has the artifact that explains its red build.
func generate(ctx context.Context, o options, prof *profile.Profile, cfg synth.Config) (*synth.Clone, error) {
	if !o.validate {
		return synth.GenerateContext(ctx, prof, cfg)
	}
	fo := fidelity.Options{Scale: o.tolerance, MaxRepair: o.maxRepair, Log: os.Stderr}
	clone, rep, err := fidelity.GenerateContext(ctx, prof, cfg, fo)
	if o.report != "" && rep != nil {
		raw, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(o.report, append(raw, '\n'), 0o644)
		}
		if jerr != nil && err == nil {
			err = fmt.Errorf("writing -report: %w", jerr)
		}
	}
	return clone, err
}

func run(ctx context.Context, o options, super *supervise.Supervisor) error {
	spec := func(step string) supervise.Spec {
		return supervise.Spec{Name: step, Retries: o.taskRetries, Quiet: o.watchdog}
	}
	var prof *profile.Profile
	pctx, cancelProfile := supervise.StageContext(ctx, "profile", o.stageTimeout)
	err := super.Run(pctx, spec("profile/"+o.name), func(tctx context.Context) error {
		var perr error
		prof, perr = loadOrCollect(tctx, o.name, o.profIn, o.maxInsts)
		return perr
	})
	cancelProfile()
	if err != nil {
		return err
	}
	if o.name == "" {
		o.name = prof.Name
	}
	if o.profOut != "" {
		f, err := os.Create(o.profOut)
		if err != nil {
			return err
		}
		if err := prof.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	var clone *synth.Clone
	gctx, cancelGenerate := supervise.StageContext(ctx, "generate", o.stageTimeout)
	err = super.Run(gctx, spec("generate/"+o.name), func(tctx context.Context) error {
		var gerr error
		clone, gerr = generate(tctx, o, prof, synth.Config{
			TargetBlocks: o.blocks,
			Iterations:   o.iters,
			Seed:         o.seed,
		})
		return gerr
	})
	cancelGenerate()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "clone of %s: %d blocks, %d body insts, %d iterations, %d stream pools\n",
		o.name, len(clone.Program.Blocks), clone.BodyInsts, clone.Iterations, len(clone.Pools))
	for _, pool := range clone.Pools {
		fmt.Fprintf(os.Stderr, "  pool %s: stride %d, advance %d, reset %d iters, %d members, %d bytes\n",
			pool.Reg, pool.Stride, pool.Advance, pool.ResetIters, pool.Members, pool.RegionBytes)
	}

	var text string
	if o.disasm {
		// The DumpAsm form round-trips through prog.Parse, so the clone
		// can be re-run with `simrun -file`.
		text = clone.Program.DumpAsm()
	} else {
		text, err = codegen.EmitC(clone.Program, codegen.Options{
			FuncName: o.name + "_clone",
			Dialect:  codegen.Dialect(o.dialect),
		})
		if err != nil {
			return err
		}
	}
	if o.out == "" {
		fmt.Print(text)
		return nil
	}
	return os.WriteFile(o.out, []byte(text), 0o644)
}
