package synth

import (
	"context"
	"math"
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

// collect profiles a workload for testing.
func collect(t *testing.T, name string) *profile.Profile {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCloneRunsToCompletion generates a clone for every workload and
// checks that it validates, runs to halt, and executes roughly the
// configured dynamic instruction count.
func TestCloneRunsToCompletion(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 300_000})
			if err != nil {
				t.Fatal(err)
			}
			clone, err := GenerateContext(context.Background(), prof, Config{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := funcsim.New(clone.Program)
			if err != nil {
				t.Fatalf("clone validate: %v", err)
			}
			res, err := m.RunColumns(funcsim.Limits{MaxInsts: 10_000_000}, nil)
			if err != nil {
				t.Fatalf("clone run: %v", err)
			}
			if !res.Halted {
				t.Fatal("clone did not halt")
			}
			want := uint64(clone.BodyInsts * clone.Iterations)
			if res.Insts < want/2 || res.Insts > want*2 {
				t.Errorf("clone ran %d insts, planned ≈%d", res.Insts, want)
			}
			t.Logf("%s clone: %d blocks, %d body insts, %d iters, ran %d insts",
				w.Name, len(clone.Program.Blocks), clone.BodyInsts, clone.Iterations, res.Insts)
		})
	}
}

// TestCloneMatchesInstructionMix checks the headline fidelity property:
// the clone's dynamic instruction-class mix stays close to the original's
// (loads, stores, branches and FP within a few percentage points).
func TestCloneMatchesInstructionMix(t *testing.T) {
	for _, name := range []string{"crc32", "fft", "qsort", "adpcm", "rsynth"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof := collect(t, name)
			clone, err := GenerateContext(context.Background(), prof, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cloneProf, err := profile.CollectContext(context.Background(), clone.Program, profile.Options{MaxInsts: 400_000})
			if err != nil {
				t.Fatal(err)
			}
			orig := prof.GlobalMixFractions()
			syn := cloneProf.GlobalMixFractions()
			for _, cls := range []isa.Class{isa.ClassLoad, isa.ClassStore, isa.ClassBranch, isa.ClassFPMul, isa.ClassFPDiv} {
				if d := math.Abs(orig[cls] - syn[cls]); d > 0.08 {
					t.Errorf("class %v: original %.3f clone %.3f (Δ %.3f)", cls, orig[cls], syn[cls], d)
				}
			}
		})
	}
}

// TestCloneMatchesBranchBehavior checks that overall branch taken rate and
// mean transition rate carry over to the clone.
func TestCloneMatchesBranchBehavior(t *testing.T) {
	for _, name := range []string{"bitcount", "dijkstra", "adpcm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof := collect(t, name)
			clone, err := GenerateContext(context.Background(), prof, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cloneProf, err := profile.CollectContext(context.Background(), clone.Program, profile.Options{MaxInsts: 400_000})
			if err != nil {
				t.Fatal(err)
			}
			ot, otr := weightedBranchRates(prof)
			ct, ctr := weightedBranchRates(cloneProf)
			if d := math.Abs(ot - ct); d > 0.15 {
				t.Errorf("taken rate: original %.3f clone %.3f", ot, ct)
			}
			if d := math.Abs(otr - ctr); d > 0.2 {
				t.Errorf("transition rate: original %.3f clone %.3f", otr, ctr)
			}
		})
	}
}

func weightedBranchRates(p *profile.Profile) (taken, trans float64) {
	var tot uint64
	for _, bs := range p.BranchList {
		tot += bs.Count
		taken += bs.TakenRate() * float64(bs.Count)
		trans += bs.TransitionRate() * float64(bs.Count)
	}
	if tot == 0 {
		return 0, 0
	}
	return taken / float64(tot), trans / float64(tot)
}

// TestCloneDeterminism: same profile + same seed → identical programs.
func TestCloneDeterminism(t *testing.T) {
	prof := collect(t, "crc32")
	c1, err := GenerateContext(context.Background(), prof, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GenerateContext(context.Background(), prof, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Program.Disassemble() != c2.Program.Disassemble() {
		t.Error("same seed produced different clones")
	}
	c3, err := GenerateContext(context.Background(), prof, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Program.Disassemble() == c3.Program.Disassemble() {
		t.Error("different seeds produced identical clones (suspicious)")
	}
}

// TestCloneHidesFunction: the clone must not contain the original's data
// (code abstraction property of Section 1) — its segments are all zeroed
// stream pools.
func TestCloneHidesFunction(t *testing.T) {
	prof := collect(t, "sha")
	clone, err := GenerateContext(context.Background(), prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range clone.Program.Segments {
		for _, bb := range seg.Data {
			if bb != 0 {
				t.Fatalf("segment %q carries nonzero data from the original", seg.Name)
			}
		}
	}
}
