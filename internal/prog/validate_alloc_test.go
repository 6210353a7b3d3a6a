package prog_test

import (
	"context"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// TestValidateAllocatesNothing: every capture and profile run validates
// its program (funcsim.New), so validating a valid program — each
// bundled workload, its default clone and each large input variant —
// must pass the operand-class checks and not touch the heap.
func TestValidateAllocatesNothing(t *testing.T) {
	type program struct {
		name string
		p    *prog.Program
	}
	var progs []program
	for _, w := range workloads.All() {
		p := w.Build()
		prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
		if err != nil {
			t.Fatal(err)
		}
		clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{w.Name, p}, program{w.Name + " clone", clone.Program})
	}
	for _, w := range workloads.Large() {
		progs = append(progs, program{w.Name, w.Build()})
	}
	for _, tc := range progs {
		var verr error
		allocs := testing.AllocsPerRun(10, func() { verr = tc.p.Validate() })
		if verr != nil {
			t.Fatalf("%s: %v", tc.name, verr)
		}
		if allocs != 0 {
			t.Errorf("%s: Validate made %.0f allocations, want 0", tc.name, allocs)
		}
	}
}
