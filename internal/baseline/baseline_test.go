package baseline

import (
	"context"
	"errors"
	"math"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/statsim"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

func prep(t *testing.T, name string) (*profile.Profile, TrainingConfig, *synth.Clone, Targets) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	train := TrainingConfig{MaxInsts: 300_000}
	clone, targets, err := Generate(p, prof, train, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return prof, train.withDefaults(), clone, targets
}

// missRate executes p on the training cache alone.
func missRate(t *testing.T, p *prog.Program, train TrainingConfig) float64 {
	t.Helper()
	m := statsim.NewMeter([]cache.Config{train.Cache}, nil)
	if err := m.Run(context.Background(), p, train.MaxInsts); err != nil {
		t.Fatal(err)
	}
	return m.Cache(0).MissRate()
}

func TestBaselineMatchesTrainingMissRate(t *testing.T) {
	for _, name := range []string{"crc32", "dijkstra"} {
		name := name
		t.Run(name, func(t *testing.T) {
			_, train, clone, targets := prep(t, name)
			mr := missRate(t, clone.Program, train)
			// The footprint search quantizes in powers of two; within a
			// few percentage points is what Bell & John style synthesis
			// achieves at its training point.
			if math.Abs(mr-targets.MissRate) > 0.05 {
				t.Errorf("training miss rate %f vs target %f", mr, targets.MissRate)
			}
		})
	}
}

func TestMeasureTargets(t *testing.T) {
	w, err := workloads.ByName("bitcount")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tg, err := MeasureTargets(p, TrainingConfig{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if tg.MissRate < 0 || tg.MissRate > 1 || tg.MispredRate < 0 || tg.MispredRate > 1 {
		t.Fatalf("targets out of range: %+v", tg)
	}
}

func TestRewriteProfileReplacesModels(t *testing.T) {
	w, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	rw := rewriteProfile(prof, 32, 64<<10, 0.10)
	// Memory: every op becomes a line-stride walker over one footprint.
	for _, m := range rw.MemList {
		if m.DominantStride != 32 {
			t.Fatalf("stride %d, want 32", m.DominantStride)
		}
		if m.MinAddr != 0 || m.MaxAddr != 64<<10 {
			t.Fatalf("interval [%d,%d]", m.MinAddr, m.MaxAddr)
		}
	}
	// Branches: the expected misprediction weight — Σ min(q,1-q)·count
	// over branches — must approximate the training misprediction rate.
	var total uint64
	var expectMiss float64
	for _, bs := range rw.BranchList {
		total += bs.Count
		q := bs.TakenRate()
		if q > 0.5 {
			q = 1 - q
		}
		expectMiss += q * float64(bs.Count)
	}
	rate := expectMiss / float64(total)
	if rate < 0.05 || rate > 0.15 {
		t.Fatalf("expected misprediction weight %f, want ≈0.10", rate)
	}
	// The SFG itself is untouched.
	if len(rw.NodeList) != len(prof.NodeList) {
		t.Fatal("node list changed")
	}
}

func TestBaselineDriftsOffTrainingPoint(t *testing.T) {
	// The defining failure of microarchitecture-dependent synthesis:
	// trained on a 16 KB cache, the baseline clone of a workload whose
	// footprint exceeds the training cache tracks other cache sizes
	// poorly. Verify it at one extreme point: the real program's miss
	// rate changes substantially between 256 B and 16 KB caches, and the
	// baseline's change differs from the real one by more than the
	// independent clone's.
	w, err := workloads.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	indep, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bl, _, err := Generate(p, prof, TrainingConfig{MaxInsts: 300_000}, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tiny := TrainingConfig{Cache: cache.Config{Size: 256, Assoc: 1, LineSize: 32}, MaxInsts: 300_000}

	realTiny, err := MeasureTargets(p, tiny)
	if err != nil {
		t.Fatal(err)
	}
	indepTiny := missRate(t, indep.Program, tiny.withDefaults())
	blTiny := missRate(t, bl.Program, tiny.withDefaults())
	indepErr := math.Abs(indepTiny - realTiny.MissRate)
	blErr := math.Abs(blTiny - realTiny.MissRate)
	t.Logf("256B cache: real %.3f indep %.3f baseline %.3f", realTiny.MissRate, indepTiny, blTiny)
	if blErr < indepErr/2 {
		t.Errorf("baseline tracked the off-training point better (%f) than the clone (%f)?", blErr, indepErr)
	}
}

// TestCalibrateCancelledWithinOneCandidate pins the footprint search's
// cancellation contract: the context is checked before every candidate,
// so a search cancelled while its first candidate runs returns the cause
// without starting a second one, and the watchdog heartbeat ticks once
// per candidate.
func TestCalibrateCancelledWithinOneCandidate(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	train := TrainingConfig{MaxInsts: 200_000}
	targets, err := MeasureTargets(p, train)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	beats := 0
	ctx = supervise.WithTicker(ctx, func() {
		beats++
		cancel() // cancel while the first candidate runs
	})
	clone, _, err := Calibrate(ctx, prof, targets, train, synth.Config{})
	if !errors.Is(err, context.Canceled) || clone != nil {
		t.Fatalf("cancelled search returned clone %v, err %v; want context.Canceled", clone != nil, err)
	}
	if beats != 1 {
		t.Fatalf("search ran %d candidates after cancellation, want 1", beats)
	}

	// A live search ticks once per candidate (2 KB .. 4 MB: 12 of them)
	// and returns the clone Generate returns.
	beats = 0
	live := supervise.WithTicker(context.Background(), func() { beats++ })
	clone, rewritten, err := Calibrate(live, prof, targets, train, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if beats < 12 {
		t.Fatalf("live search ticked %d times, want >= 12 (one per candidate)", beats)
	}
	again, err := synth.GenerateContext(context.Background(), rewritten, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Program.DumpAsm() != clone.Program.DumpAsm() {
		t.Fatal("re-synthesizing the returned profile gives a different program")
	}
	want, _, err := Generate(p, prof, train, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Program.DumpAsm() != clone.Program.DumpAsm() {
		t.Fatal("Calibrate and Generate disagree")
	}
}
