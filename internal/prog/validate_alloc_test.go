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
// bundled workload and its default clone — must not touch the heap.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.Build()
		prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			kind string
			p    *prog.Program
		}{{"workload", p}, {"clone", clone.Program}} {
			var verr error
			allocs := testing.AllocsPerRun(10, func() { verr = tc.p.Validate() })
			if verr != nil {
				t.Fatalf("%s %s: %v", w.Name, tc.kind, verr)
			}
			if allocs != 0 {
				t.Errorf("%s %s: Validate made %.0f allocations, want 0", w.Name, tc.kind, allocs)
			}
		}
	}
}
