package uarch_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/statsim"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

var (
	programsMu sync.Mutex
	programs   = map[string][2]*prog.Program{}
)

// realAndClone returns w's program and its default clone (profiled at
// profile.DefaultMaxInsts), built once per test binary.
func realAndClone(t *testing.T, w workloads.Workload) [2]*prog.Program {
	t.Helper()
	programsMu.Lock()
	defer programsMu.Unlock()
	if ps, ok := programs[w.Name]; ok {
		return ps
	}
	real := w.Build()
	prof, err := profile.CollectContext(context.Background(), real, profile.Options{MaxInsts: profile.DefaultMaxInsts})
	if err != nil {
		t.Fatal(err)
	}
	clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ps := [2]*prog.Program{real, clone.Program}
	programs[w.Name] = ps
	return ps
}

// componentStats replays the first n instructions of tr (0 = the whole
// trace) through components that stand apart from the pump, each fresh:
// a statsim.Meter over cfg's predictor, and a cfg.L1I cache fed one
// access per change of fetch line (PC / L1I.LineSize). There is no wrong
// path, so the pump's predictor and L1I see the same inputs in the same
// order, and at warmup 0 its counts must equal these.
func componentStats(tr *dyntrace.Trace, cfg uarch.Config, n uint64) (lookups, mispredicts uint64, l1i cache.Stats, err error) {
	m := statsim.NewMeter(nil, []string{string(cfg.Predictor)})
	if err := m.Walk(context.Background(), tr, n); err != nil {
		return 0, 0, cache.Stats{}, err
	}
	lookups, mispredicts = m.Branches(0)
	ic := cache.MustNew(cfg.L1I)
	lineSize := uint64(cfg.L1I.LineSize)
	prev := ^uint64(0)
	static := tr.Statics()
	for w := tr.Walk(n); !w.Done(); {
		c, err := w.Next(context.Background())
		if err != nil {
			return 0, 0, cache.Stats{}, err
		}
		for _, sid := range c.SIDs {
			pc := static[sid].PC
			if line := pc / lineSize; line != prev {
				prev = line
				ic.Access(pc, false)
			}
		}
	}
	return lookups, mispredicts, ic.Stats(), nil
}

// checkComponents fails t when the pump's branch or L1I counts in st
// differ from componentStats over the same window.
func checkComponents(t *testing.T, label string, tr *dyntrace.Trace, st uarch.Stats, n uint64) {
	t.Helper()
	look, miss, l1i, err := componentStats(tr, st.Config, n)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if st.BranchLookups != look || st.BranchMispredict != miss {
		t.Errorf("%s: pump branches %d lookups / %d mispredicts, standalone predictor %d / %d",
			label, st.BranchLookups, st.BranchMispredict, look, miss)
	}
	if st.L1I != l1i {
		t.Errorf("%s: pump L1I %+v, standalone L1I %+v", label, st.L1I, l1i)
	}
}

// TestPumpMatchesComponents checks the pump's predictor and L1I
// statistics against the standalone components on every workload, real
// and default clone, on the base configuration and each Table 3 design
// change, at a 200k-instruction budget with no warmup: 276 cases.
func TestPumpMatchesComponents(t *testing.T) {
	const budget = 200_000
	lim := uarch.Limits{MaxInsts: budget}
	cfgs := []uarch.Config{uarch.BaseConfig()}
	for _, dc := range uarch.DesignChanges() {
		cfgs = append(cfgs, dc.Apply(uarch.BaseConfig()))
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			for k, p := range realAndClone(t, w) {
				kind := [2]string{"real", "clone"}[k]
				tr, err := dyntrace.CaptureContext(context.Background(), p, budget)
				if err != nil {
					t.Fatal(err)
				}
				res, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range res {
					checkComponents(t, fmt.Sprintf("%s/%s", kind, cfgs[i].Name), tr, st, budget)
				}
			}
		})
	}
}
