package uarch

import (
	"context"
	"reflect"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// replayStepped replays tr on every cfg like ReplayMultiWorkers with one
// worker, but with every pipeline stepping each stall cycle instead of
// fast-forwarding over it.
func replayStepped(t *testing.T, tr *dyntrace.Trace, cfgs []Config, lim Limits) []Stats {
	t.Helper()
	sims := make([]*Sim, len(cfgs))
	for i, cfg := range cfgs {
		s, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.warmup = lim.Warmup
		s.stepEveryCycle = true
		sims[i] = s
	}
	if err := replayWalkSerial(context.Background(), tr.Walk(lim.MaxInsts), templatesFor(tr), sims); err != nil {
		t.Fatal(err)
	}
	out := make([]Stats, len(sims))
	for i, s := range sims {
		out[i] = s.finish()
	}
	return out
}

// TestStallSkipMatchesStepping: fastForward only jumps over cycles in
// which nothing can happen, so every Stats field must be identical to a
// run that steps each of those cycles. It covers every workload, real and
// default clone, on the base configuration and each Table 3 design
// change, at a 200k-instruction budget with the default warmup.
func TestStallSkipMatchesStepping(t *testing.T) {
	const budget = 200_000
	lim := Limits{MaxInsts: budget, Warmup: DefaultWarmup(budget)}
	cfgs := []Config{BaseConfig()}
	for _, dc := range DesignChanges() {
		cfgs = append(cfgs, dc.Apply(BaseConfig()))
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			real := w.Build()
			prof, err := profile.CollectContext(context.Background(), real, profile.Options{MaxInsts: profile.DefaultMaxInsts})
			if err != nil {
				t.Fatal(err)
			}
			clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*prog.Program{real, clone.Program} {
				tr, err := dyntrace.CaptureContext(context.Background(), p, budget)
				if err != nil {
					t.Fatal(err)
				}
				skipped, err := ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
				if err != nil {
					t.Fatal(err)
				}
				stepped := replayStepped(t, tr, cfgs, lim)
				for i := range cfgs {
					if !reflect.DeepEqual(skipped[i], stepped[i]) {
						t.Errorf("%s on %s: stall skipping changed the stats\nskipped: %+v\nstepped: %+v",
							p.Name, cfgs[i].Name, skipped[i], stepped[i])
					}
				}
			}
		})
	}
}
