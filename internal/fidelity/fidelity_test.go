package fidelity

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/synth"
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

// TestAllWorkloadsPassDefaultGate is the acceptance bar: every bundled
// workload's clone passes the fidelity gate at default tolerances on the
// first attempt (no repair needed). Run with -v to see the calibration
// headroom per attribute.
func TestAllWorkloadsPassDefaultGate(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 400_000})
			if err != nil {
				t.Fatal(err)
			}
			clone, rep, err := GenerateContext(context.Background(), prof, synth.Config{}, Options{})
			if err != nil {
				t.Fatalf("closed-loop generation failed: %v", err)
			}
			if clone == nil || !rep.Pass {
				t.Fatalf("gate did not pass:\n%s", rep)
			}
			if rep.Attempt != 1 {
				t.Errorf("needed repair (attempt %d) at default tolerances:\n%s", rep.Attempt, rep)
			}
			t.Logf("\n%s", rep)
		})
	}
}

// TestBrokenGeneratorCaught: a deliberately broken generator (dependency-
// distance sampling collapsed to 1 under the synth test hook) must be
// caught by the gate — a FAIL on the dependency-distance attributes and a
// hard error from the closed loop, never a silently shipped clone.
func TestBrokenGeneratorCaught(t *testing.T) {
	prof := collect(t, "fft")
	var log bytes.Buffer
	clone, rep, err := GenerateContext(context.Background(), prof, synth.Config{TestBreakDepDist: true},
		Options{MaxRepair: -1, Log: &log})
	if err == nil {
		t.Fatalf("broken generator passed the gate:\n%s", rep)
	}
	if clone != nil {
		t.Error("failed gate still returned a clone")
	}
	if rep == nil || rep.Pass {
		t.Fatalf("expected failing report, got %+v", rep)
	}
	failed := strings.Join(rep.Failures(), " ")
	if !strings.Contains(failed, "dep-mid") {
		t.Errorf("dependency-distance breakage not among failures: %v", rep.Failures())
	}
	if !strings.Contains(err.Error(), "fidelity: FAIL") {
		t.Errorf("error does not carry the greppable report: %v", err)
	}
	if !strings.Contains(log.String(), "fidelity: FAIL dep-") {
		t.Errorf("log missing greppable FAIL line:\n%s", log.String())
	}
}

// TestRepairLoopBoundedAndDeterministic: persistent failure runs exactly
// 1+MaxRepair attempts with distinct derived seeds, deterministically,
// and logs a retry only for the attempts another one follows.
func TestRepairLoopBoundedAndDeterministic(t *testing.T) {
	prof := collect(t, "qsort")
	var log bytes.Buffer
	run := func() (*Report, error) {
		log.Reset()
		_, rep, err := GenerateContext(context.Background(), prof, synth.Config{Seed: 5, TestBreakDepDist: true},
			Options{MaxRepair: 2, Log: &log})
		return rep, err
	}
	rep1, err1 := run()
	rep2, err2 := run()
	if got := strings.Count(log.String(), "retrying"); got != 2 || strings.Contains(log.String(), "attempt 3/3") {
		t.Errorf("%d retry lines, want one each after attempts 1 and 2 of 3:\n%s", got, log.String())
	}
	if err1 == nil || err2 == nil {
		t.Fatal("broken generator passed")
	}
	if rep1.String() != rep2.String() {
		t.Error("repair loop produced different final reports across runs")
	}
	if err1.Error() != err2.Error() {
		t.Error("repair loop is not deterministic")
	}
	if rep1.Attempt != 3 {
		t.Errorf("expected 3 attempts (1 + MaxRepair 2), final report says attempt %d", rep1.Attempt)
	}
	if len(rep1.FailedSeeds) != 2 {
		t.Errorf("expected 2 recorded failed seeds, got %v", rep1.FailedSeeds)
	}
	seen := map[uint64]bool{rep1.Seed: true}
	for _, s := range rep1.FailedSeeds {
		if seen[s] {
			t.Errorf("derived seed %d repeated across attempts", s)
		}
		seen[s] = true
	}
	if rep1.FailedSeeds[0] != 5 {
		t.Errorf("attempt 1 must use the configured seed 5, used %d", rep1.FailedSeeds[0])
	}
}

// TestDeriveSeed pins the derivation contract: attempt 1 is the base
// seed, later attempts are distinct, non-zero, and reproducible.
func TestDeriveSeed(t *testing.T) {
	if deriveSeed(42, 1) != 42 {
		t.Error("attempt 1 must use the base seed")
	}
	seen := map[uint64]bool{}
	for attempt := 1; attempt <= 16; attempt++ {
		s := deriveSeed(42, attempt)
		if s == 0 {
			t.Errorf("attempt %d derived seed 0 (synth would re-default it)", attempt)
		}
		if seen[s] {
			t.Errorf("attempt %d repeated seed %d", attempt, s)
		}
		seen[s] = true
		if s != deriveSeed(42, attempt) {
			t.Errorf("attempt %d not reproducible", attempt)
		}
	}
}

// TestReportJSONRoundTrip: the -report artifact must survive JSON.
func TestReportJSONRoundTrip(t *testing.T) {
	prof := collect(t, "crc32")
	clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckContext(context.Background(), prof, clone, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != rep.Workload || back.Pass != rep.Pass || len(back.Attributes) != len(rep.Attributes) {
		t.Errorf("round trip changed the report: %+v vs %+v", back, rep)
	}
}

// TestToleranceScale: Options.Scale multiplies every default bound
// uniformly — scale 0 and 1 report the defaults bit for bit, scale 2
// exactly doubles them — and a near-zero-tolerance gate must fail
// (nothing matches exactly), proving the attributes are actually
// measured rather than vacuously passed.
func TestToleranceScale(t *testing.T) {
	def := DefaultTolerances()
	byName := map[string]float64{
		"mix-jsd":           def.MixJSD,
		"dep-jsd":           def.DepJSD,
		"dep-chi2":          def.DepChi2,
		"dep-mid":           def.DepMid,
		"stride-coverage":   def.StrideCoverage,
		"branch-taken":      def.BranchTaken,
		"branch-transition": def.BranchTransition,
		"sfg-corr":          def.SFGCorr,
	}
	prof := collect(t, "fft")
	clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ scale, factor float64 }{{0, 1}, {1, 1}, {2, 2}} {
		rep, err := CheckContext(context.Background(), prof, clone, Options{Scale: tc.scale})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Attributes) != len(byName) {
			t.Fatalf("scale %g: %d attributes reported, want %d", tc.scale, len(rep.Attributes), len(byName))
		}
		for _, a := range rep.Attributes {
			want, ok := byName[a.Name]
			if !ok {
				t.Fatalf("scale %g: unexpected attribute %q", tc.scale, a.Name)
			}
			if a.Tolerance != want*tc.factor {
				t.Errorf("scale %g: %s tolerance %v, want %v", tc.scale, a.Name, a.Tolerance, want*tc.factor)
			}
		}
	}
	rep, err := CheckContext(context.Background(), prof, clone, Options{Scale: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("near-zero tolerances passed — attributes are not being measured")
	}
}
