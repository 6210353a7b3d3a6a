// Command profiler prints a workload's microarchitecture-independent
// profile: instruction mix, SFG summary, dependency distances, stride
// coverage, stream inventory, and branch statistics.
//
// Usage:
//
//	profiler -workload crc32 [-json] [-insts N]
//	profiler -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "workload to profile")
	list := flag.Bool("list", false, "list available workloads")
	asJSON := flag.Bool("json", false, "emit the full profile as JSON")
	asDot := flag.Bool("dot", false, "emit the statistical flow graph as Graphviz DOT")
	maxInsts := flag.Uint64("insts", profile.DefaultMaxInsts, "dynamic instructions to profile")
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s %-18s %s\n", w.Name, w.Domain, w.Suite)
		}
		return
	}
	if err := run(*name, *asJSON, *asDot, *maxInsts); err != nil {
		fmt.Fprintln(os.Stderr, "profiler:", err)
		os.Exit(1)
	}
}

func run(name string, asJSON, asDot bool, maxInsts uint64) error {
	w, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: maxInsts})
	if err != nil {
		return err
	}
	if asDot {
		return prof.WriteDot(os.Stdout)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(prof)
	}
	fmt.Printf("profile of %s: %d dynamic insts, %d SFG nodes, %d static mem ops, %d static branches\n",
		prof.Name, prof.TotalInsts, len(prof.NodeList), len(prof.MemList), len(prof.BranchList))
	fmt.Println("\ninstruction mix:")
	mix := prof.GlobalMixFractions()
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		if mix[c] > 0 {
			fmt.Printf("  %-10s %6.2f%%\n", c, 100*mix[c])
		}
	}
	fmt.Println("\ndependency distance distribution (register reads):")
	var depTot uint64
	for _, v := range prof.GlobalDepDist {
		depTot += v
	}
	labels := []string{"1", "<=2", "<=4", "<=6", "<=8", "<=16", "<=32", ">32"}
	for i, v := range prof.GlobalDepDist {
		fmt.Printf("  %-5s %6.2f%%\n", labels[i], 100*float64(v)/float64(depTot))
	}
	fmt.Printf("\ndata locality: stride coverage %.1f%% (Fig 3 metric), %d unique streams, mean stream length %.1f\n",
		100*prof.StrideCoverage(), prof.UniqueStreams(), prof.MeanStreamLen())
	fmt.Println("\ntop streams (by accesses):")
	printed := 0
	for _, m := range prof.MemList {
		if printed >= 10 {
			break
		}
		fmt.Printf("  B%d.%d %-4s count=%-8d stride=%-6d span=%d\n",
			m.Ref.Block, m.Ref.Index, m.Op, m.Count, m.DominantStride, m.Span())
		printed++
	}
	fmt.Println("\nbranches:")
	for _, bs := range prof.BranchList {
		fmt.Printf("  B%d.%d count=%-8d taken=%.3f transition=%.3f\n",
			bs.Ref.Block, bs.Ref.Index, bs.Count, bs.TakenRate(), bs.TransitionRate())
	}
	return nil
}
