// Designspace: drive the paper's five microarchitecture design changes
// (Table 3) with a clone standing in for the real application, and report
// how faithfully the clone predicts each change's speedup and power delta.
//
// Run with:
//
//	go run ./examples/designspace [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"perfclone/internal/dyntrace"
	"perfclone/internal/power"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// measure captures p's first 500k instructions once and replays the trace
// on every configuration in a single fused walk, returning each
// configuration's IPC and average power.
func measure(ctx context.Context, p *prog.Program, cfgs []uarch.Config) (ipc, pw []float64, err error) {
	lim := uarch.Limits{Warmup: 150_000, MaxInsts: 500_000}
	t, err := dyntrace.CaptureContext(ctx, p, lim.MaxInsts)
	if err != nil {
		return nil, nil, err
	}
	sts, err := uarch.ReplayMultiWorkers(ctx, t, cfgs, lim, 1)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range sts {
		ipc = append(ipc, st.IPC())
		pw = append(pw, power.Estimate(st).AvgPower)
	}
	return ipc, pw, nil
}

func main() {
	name := "adpcm"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	app := w.Build()
	ctx := context.Background()
	prof, err := profile.CollectContext(ctx, app, profile.Options{MaxInsts: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	clone, err := synth.GenerateContext(ctx, prof, synth.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// cfgs[0] is the base; cfgs[1+ci] is design change ci.
	base := uarch.BaseConfig()
	changes := uarch.DesignChanges()
	cfgs := []uarch.Config{base}
	for _, ch := range changes {
		cfgs = append(cfgs, ch.Apply(base))
	}
	realIPC, realPow, err := measure(ctx, app, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	cloneIPC, clonePow, err := measure(ctx, clone.Program, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	realBaseIPC, cloneBaseIPC := realIPC[0], cloneIPC[0]
	fmt.Printf("design-space study for %s\n", name)
	fmt.Printf("base: real IPC %.3f, clone IPC %.3f\n\n", realBaseIPC, cloneBaseIPC)
	fmt.Printf("%-22s %12s %12s %10s %10s\n",
		"design change", "real speedup", "clone spdup", "RE(ipc)", "RE(power)")
	for ci, ch := range changes {
		k := 1 + ci
		reIPC, err := stats.RelativeError(realBaseIPC, realIPC[k], cloneBaseIPC, cloneIPC[k])
		if err != nil {
			log.Fatal(err)
		}
		rePow, err := stats.RelativeError(realPow[0], realPow[k], clonePow[0], clonePow[k])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %11.3fx %11.3fx %9.2f%% %9.2f%%\n",
			ch.Name, realIPC[k]/realBaseIPC, cloneIPC[k]/cloneBaseIPC, 100*reIPC, 100*rePow)
	}
	fmt.Println("\nRE is the paper's relative-error metric (Section 5.2): how far the")
	fmt.Println("clone's predicted change deviates from the real program's change.")
}
