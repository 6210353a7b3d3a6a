package synth

import (
	"context"
	"math"
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// TestCloneStrideFidelity: profiling the clone must recover the dominant
// strides the clone was built from, for the heavy pools.
func TestCloneStrideFidelity(t *testing.T) {
	prof := collect(t, "crc32")
	clone, err := GenerateContext(context.Background(), prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// crc32's dominant original stride is +1 (the data bytes): the clone
	// must carry a stride-1 stream pool whose pointer advances forward.
	foundPool := false
	for _, pool := range clone.Pools {
		if pool.Stride == 1 && pool.Advance >= 1 {
			foundPool = true
		}
	}
	if !foundPool {
		t.Fatalf("clone lost the stride-1 byte stream pool: %+v", clone.Pools)
	}
	// And the realized access stream must show small forward strides:
	// each unrolled instance steps by the stride, the pointer by
	// instances × stride, so per-static-op dominant strides stay small
	// and positive for the byte pool.
	cloneProf, err := profile.CollectContext(context.Background(), clone.Program, profile.Options{MaxInsts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range cloneProf.MemList {
		if m.DominantStride >= 1 && m.DominantStride <= 512 && m.Count > 100 {
			found = true
			break
		}
	}
	if !found {
		t.Error("clone's realized stream has no small forward strides")
	}
}

// TestCloneFootprint: the clone's data footprint must be the same order
// of magnitude as the original's (cluster union, not sum or collapse).
func TestCloneFootprint(t *testing.T) {
	for _, name := range []string{"crc32", "fft", "qsort"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prof := collect(t, name)
			clone, err := GenerateContext(context.Background(), prof, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var origLo, origHi uint64
			origLo = math.MaxUint64
			for _, m := range prof.MemList {
				if m.Count == 0 {
					continue
				}
				if m.MinAddr < origLo {
					origLo = m.MinAddr
				}
				if m.MaxAddr > origHi {
					origHi = m.MaxAddr
				}
			}
			orig := float64(origHi - origLo)
			cloneFoot := float64(clone.Program.MemSize)
			if cloneFoot < orig/4 || cloneFoot > orig*8 {
				t.Errorf("clone footprint %.0f vs original %.0f: out of proportion", cloneFoot, orig)
			}
		})
	}
}

// TestCloneLoopBodyFitsL1I: the adaptive chain length keeps the loop body
// near the I-cache-resident target for every workload.
func TestCloneLoopBodyFitsL1I(t *testing.T) {
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
			bytes := clone.BodyInsts * 8
			if bytes > 24<<10 {
				t.Errorf("loop body %d bytes exceeds the 16KB L1I by too much", bytes)
			}
		})
	}
}

// TestReuseParams validates the revisit-factor/window derivation.
func TestReuseParams(t *testing.T) {
	mk := func(count uint64, stride int64, span uint64, runLen float64) *profile.MemStat {
		return &profile.MemStat{
			Op:             isa.OpLd,
			Count:          count,
			DominantStride: stride,
			MinAddr:        0,
			MaxAddr:        span - 8,
			MeanStreamLen:  runLen,
		}
	}
	// gsm-like: 69120 accesses × 8B over 61KB span, 155-long runs.
	k, win := reuseParams(mk(69120, 8, 61440, 155))
	if k < 8 || k > 10 {
		t.Errorf("gsm-like revisit factor %d, want ≈9", k)
	}
	if win < 1000 || win > 1500 {
		t.Errorf("gsm-like window %d, want ≈1240", win)
	}
	// Single sweep: compulsory walker.
	k, _ = reuseParams(mk(1500, 8, 12000, 1499))
	if k != 1 {
		t.Errorf("single-sweep revisit factor %d, want 1", k)
	}
	// Stride 0: degenerate.
	k, _ = reuseParams(mk(100, 0, 8, 1))
	if k != 1 {
		t.Errorf("stride-0 revisit factor %d", k)
	}
}

// TestWindowPlanPowersOfTwo: windowed pools round to mask-friendly sizes.
func TestWindowPlanPowersOfTwo(t *testing.T) {
	ps := &poolState{stride: 8, advance: 64, span: 61440, rewalkK: 9, windowBytes: 1240}
	w := planWindow(ps)
	for _, v := range []int{w.winIters, w.kFactor, w.numWin} {
		if v < 1 || v&(v-1) != 0 {
			t.Fatalf("window parameter %d not a power of two (%+v)", v, w)
		}
	}
	if w.adv <= 0 {
		t.Fatal("windowed advance must be positive")
	}
	if int64(w.numWin)*w.winBytes > maxPoolRegion {
		t.Fatal("window plan exceeds the region cap")
	}
}

// TestCloneMemoryAccessesInBounds: every clone memory access must stay
// inside the program's memory image for the whole run (catches
// displacement/region sizing bugs).
func TestCloneMemoryAccessesInBounds(t *testing.T) {
	for _, name := range []string{"rijndael", "patricia", "gsm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof := collect(t, name)
			clone, err := GenerateContext(context.Background(), prof, Config{})
			if err != nil {
				t.Fatal(err)
			}
			memSize := clone.Program.MemSize
			obs := func(evs []funcsim.Event) error {
				for k := range evs {
					ev := &evs[k]
					if ev.Inst.Op.IsMem() && ev.Addr >= memSize {
						t.Fatalf("access at %d outside memory %d", ev.Addr, memSize)
					}
				}
				return nil
			}
			// funcsim itself errors on out-of-range, but the explicit
			// observer gives a better failure message.
			m, err := funcsim.New(clone.Program)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunBatch(funcsim.Limits{MaxInsts: 2_000_000}, obs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDepDistanceRealization: a profile dominated by distance-1
// dependences must yield a clone whose own profile is also short-distance
// dominated.
func TestDepDistanceRealization(t *testing.T) {
	prof := collect(t, "basicmath") // Newton chains: serial dependences
	clone, err := GenerateContext(context.Background(), prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cloneProf, err := profile.CollectContext(context.Background(), clone.Program, profile.Options{MaxInsts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	shortFrac := func(p *profile.Profile) float64 {
		var tot, short uint64
		for i, c := range p.GlobalDepDist {
			tot += c
			if i <= 2 { // distance ≤ 4
				short += c
			}
		}
		return float64(short) / float64(tot)
	}
	o, c := shortFrac(prof), shortFrac(cloneProf)
	if math.Abs(o-c) > 0.25 {
		t.Errorf("short-dependence fraction: original %.2f clone %.2f", o, c)
	}
}

// TestTakenRateOnlyAblationDiffers: the strawman configuration must
// produce a different program than the full model (otherwise the ablation
// measures nothing).
func TestTakenRateOnlyAblationDiffers(t *testing.T) {
	prof := collect(t, "qsort")
	full, err := GenerateContext(context.Background(), prof, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	strawman, err := GenerateContext(context.Background(), prof, Config{Seed: 3, TakenRateOnlyBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Program.Disassemble() == strawman.Program.Disassemble() {
		t.Fatal("taken-rate-only ablation generated an identical clone")
	}
}

// TestGenerateRejectsEmptyProfile guards the API contract.
func TestGenerateRejectsEmptyProfile(t *testing.T) {
	if _, err := GenerateContext(context.Background(), &profile.Profile{Name: "empty"}, Config{}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

// TestCloneOfCloneIsStable: cloning a clone should roughly preserve the
// mix again (the profile → synthesis loop is a near-fixed-point).
func TestCloneOfCloneIsStable(t *testing.T) {
	prof := collect(t, "adpcm")
	c1, err := GenerateContext(context.Background(), prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := profile.CollectContext(context.Background(), c1.Program, profile.Options{MaxInsts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GenerateContext(context.Background(), p1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := profile.CollectContext(context.Background(), c2.Program, profile.Options{MaxInsts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	m1 := p1.GlobalMixFractions()
	m2 := p2.GlobalMixFractions()
	for _, cls := range []isa.Class{isa.ClassLoad, isa.ClassStore, isa.ClassBranch} {
		if d := math.Abs(m1[cls] - m2[cls]); d > 0.1 {
			t.Errorf("class %v drifted %.3f → %.3f across re-cloning", cls, m1[cls], m2[cls])
		}
	}
}

// smallProfile builds a tiny but valid profile by hand, exercising the
// generator away from the workload corpus.
func TestGenerateFromHandMadeProfile(t *testing.T) {
	b := prog.NewBuilder("hand")
	base := b.Zeros("arr", 1024)
	b.Label("entry")
	b.Li(isa.IntReg(1), int64(base))
	b.Li(isa.IntReg(2), 100)
	b.Label("loop")
	b.Ld(isa.IntReg(3), isa.IntReg(1), 0)
	b.Add(isa.IntReg(4), isa.IntReg(3), isa.IntReg(3))
	b.Addi(isa.IntReg(1), isa.IntReg(1), 8)
	b.Addi(isa.IntReg(2), isa.IntReg(2), -1)
	b.Bne(isa.IntReg(2), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	prof, err := profile.CollectContext(context.Background(), b.MustBuild(), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clone, err := GenerateContext(context.Background(), prof, Config{TargetBlocks: 20, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcsim.New(clone.Program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunColumns(funcsim.Limits{MaxInsts: 1_000_000}, nil)
	if err != nil || !res.Halted {
		t.Fatalf("hand-made clone run: halted=%v err=%v", res.Halted, err)
	}
	if clone.Iterations != 50 {
		t.Fatalf("iterations override ignored: %d", clone.Iterations)
	}
}
