// Whatif: edit a workload profile before synthesis to explore hypothetical
// program variants — the "what-if scenarios" Section 3.1.4 gives as the
// reason the abstract workload model is kept simple ("it provides us with
// the flexibility to study what-if scenarios, which is almost impossible
// with a more complex model").
//
// The example takes gsm's profile and asks: what if the application's
// working set were 4x larger? What if its data accesses were twice as
// sparse (doubled strides)? Each variant is synthesized and simulated —
// without touching the original program.
//
// Run with:
//
//	go run ./examples/whatif
package main

import (
	"context"
	"fmt"
	"log"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// variant derives a modified copy of a profile's memory behaviour.
func variant(p *profile.Profile, name string, edit func(*profile.MemStat)) *profile.Profile {
	out := *p
	out.Name = p.Name + "-" + name
	out.Mem = make(map[profile.StaticRef]*profile.MemStat, len(p.Mem))
	out.MemList = nil
	for _, m := range p.MemList {
		nm := *m
		edit(&nm)
		out.Mem[nm.Ref] = &nm
		out.MemList = append(out.MemList, &nm)
	}
	return &out
}

func main() {
	w, err := workloads.ByName("gsm")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	prof, err := profile.CollectContext(ctx, w.Build(), profile.Options{MaxInsts: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}

	scenarios := []*profile.Profile{
		variant(prof, "asis", func(m *profile.MemStat) {}),
		variant(prof, "4x-footprint", func(m *profile.MemStat) {
			m.MaxAddr = m.MinAddr + 4*(m.MaxAddr-m.MinAddr)
		}),
		variant(prof, "2x-stride", func(m *profile.MemStat) {
			m.DominantStride *= 2
			m.MaxAddr = m.MinAddr + 2*(m.MaxAddr-m.MinAddr)
		}),
	}

	base := uarch.BaseConfig()
	fmt.Println("what-if study on gsm's memory behaviour (base configuration)")
	fmt.Printf("\n%-18s %8s %10s %10s\n", "scenario", "IPC", "L1D miss", "L2 miss")
	for _, sc := range scenarios {
		clone, err := synth.GenerateContext(ctx, sc, synth.Config{})
		if err != nil {
			log.Fatal(err)
		}
		lim := uarch.Limits{Warmup: 150_000, MaxInsts: 500_000}
		t, err := dyntrace.CaptureContext(ctx, clone.Program, lim.MaxInsts)
		if err != nil {
			log.Fatal(err)
		}
		st, err := uarch.ReplayContext(ctx, t, base, lim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %8.3f %9.2f%% %9.2f%%\n",
			sc.Name, st.IPC(), 100*st.L1D.MissRate(), 100*st.L2.MissRate())
	}
	fmt.Println("\nGrowing the footprint or sparsifying the strides degrades locality")
	fmt.Println("and IPC — measured without ever modifying the original application.")
}
