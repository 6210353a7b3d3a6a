package statsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"perfclone/internal/bpred"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/funcsim"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// capture builds the named workload and captures its first maxInsts
// instructions.
func capture(t *testing.T, name string, maxInsts uint64) (*prog.Program, *dyntrace.Trace) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := dyntrace.CaptureContext(context.Background(), p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	return p, tr
}

// timeDetailed times the first 400k instructions of p (100k warmup) on cfg.
func timeDetailed(t *testing.T, p *prog.Program, cfg uarch.Config) uarch.Stats {
	t.Helper()
	lim := uarch.Limits{Warmup: 100_000, MaxInsts: 400_000}
	tr, err := dyntrace.CaptureContext(context.Background(), p, lim.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := uarch.ReplayContext(context.Background(), tr, cfg, lim)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func setup(t *testing.T, name string) (*profile.Profile, Rates, uarch.Config) {
	t.Helper()
	p, tr := capture(t, name, 300_000)
	cfg := uarch.BaseConfig()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := MeasureRates(context.Background(), tr, cfg, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	return prof, rates, cfg
}

// measureRatesExecuted is the execution-driven reference for
// MeasureRates: the functional simulator's observer feeds every data
// reference to L1D (and L2 on a miss) and every branch outcome to the
// predictor as the program runs.
func measureRatesExecuted(p *prog.Program, cfg uarch.Config, maxInsts uint64) (Rates, error) {
	l1 := cache.MustNew(cfg.L1D)
	l2 := cache.MustNew(cfg.L2)
	pred, err := bpred.ByName(string(cfg.Predictor))
	if err != nil {
		return Rates{}, err
	}
	var bLook, bMiss uint64
	obs := func(evs []funcsim.Event) error {
		for k := range evs {
			ev := &evs[k]
			if ev.Inst.Op.IsMem() {
				if !l1.Access(ev.Addr, ev.Inst.Op.IsStore()) {
					l2.Access(ev.Addr, ev.Inst.Op.IsStore())
				}
			}
			if ev.Inst.Op.IsBranch() {
				bLook++
				if pred.Predict(ev.PC) != ev.Taken {
					bMiss++
				}
				pred.Update(ev.PC, ev.Taken)
			}
		}
		return nil
	}
	m, err := funcsim.New(p)
	if err != nil {
		return Rates{}, err
	}
	if _, err := m.RunBatch(funcsim.Limits{MaxInsts: maxInsts}, obs); err != nil {
		return Rates{}, err
	}
	r := Rates{L1DMiss: l1.Stats().MissRate(), L2Miss: l2.Stats().MissRate()}
	if bLook > 0 {
		r.Mispred = float64(bMiss) / float64(bLook)
	}
	return r, nil
}

// TestMeasureRatesMatchesExecution pins the trace-driven rates bit-equal
// to the execution-driven reference, including over a prefix of a longer
// capture.
func TestMeasureRatesMatchesExecution(t *testing.T) {
	cfg := uarch.BaseConfig()
	const budget = 300_000
	for _, name := range []string{"crc32", "qsort", "fft"} {
		p, tr := capture(t, name, 2*budget)
		got, err := MeasureRates(context.Background(), tr, cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		want, err := measureRatesExecuted(p, cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.L1DMiss) != math.Float64bits(want.L1DMiss) ||
			math.Float64bits(got.L2Miss) != math.Float64bits(want.L2Miss) ||
			math.Float64bits(got.Mispred) != math.Float64bits(want.Mispred) {
			t.Errorf("%s: rates %+v (trace), %+v (execution)", name, got, want)
		}
	}
}

// TestEstimateCancelled: an estimate under an already-cancelled context
// returns the context's cause and zero Stats.
func TestEstimateCancelled(t *testing.T) {
	prof, rates, cfg := setup(t, "crc32")
	cause := errors.New("stage abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	st, err := Estimate(ctx, prof, rates, cfg, Options{TraceLen: 200_000})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if st != (uarch.Stats{}) {
		t.Fatalf("cancelled estimate returned stats %+v", st)
	}
}

func TestEstimateApproximatesDetailedIPC(t *testing.T) {
	// Statistical simulation's accuracy claim (Section 2): the synthetic
	// trace estimates the detailed simulation's IPC at the *same*
	// configuration within the error band the literature reports
	// (typically 5-15 %).
	for _, name := range []string{"crc32", "gsm", "sha"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := workloads.ByName(name)
			p := w.Build()
			prof, rates, cfg := setup(t, name)
			detailed := timeDetailed(t, p, cfg)
			est, err := Estimate(context.Background(), prof, rates, cfg, Options{TraceLen: 300_000})
			if err != nil {
				t.Fatal(err)
			}
			relErr := math.Abs(est.IPC()-detailed.IPC()) / detailed.IPC()
			t.Logf("%s: detailed IPC %.3f, statistical %.3f (err %.1f%%)",
				name, detailed.IPC(), est.IPC(), 100*relErr)
			if relErr > 0.30 {
				t.Errorf("statistical estimate off by %.1f%%", 100*relErr)
			}
		})
	}
}

func TestEstimateInjectsRates(t *testing.T) {
	prof, _, cfg := setup(t, "crc32")
	// Force heavy misses: the estimated IPC must drop substantially
	// versus a no-miss estimate.
	fast, err := Estimate(context.Background(), prof, Rates{}, cfg, Options{TraceLen: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Estimate(context.Background(), prof, Rates{L1DMiss: 0.5, L2Miss: 0.8, Mispred: 0.2}, cfg, Options{TraceLen: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if slow.IPC() >= fast.IPC()*0.8 {
		t.Fatalf("injected misses had little effect: %.3f vs %.3f", slow.IPC(), fast.IPC())
	}
	if slow.L1D.MissRate() < 0.3 {
		t.Fatalf("L1D miss injection failed: %.3f", slow.L1D.MissRate())
	}
	if slow.MispredRate() < 0.1 {
		t.Fatalf("mispredict injection failed: %.3f", slow.MispredRate())
	}
}

func TestEstimateDeterministic(t *testing.T) {
	prof, rates, cfg := setup(t, "fft")
	a, err := Estimate(context.Background(), prof, rates, cfg, Options{TraceLen: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(context.Background(), prof, rates, cfg, Options{TraceLen: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Insts, a.Cycles, b.Insts, b.Cycles)
	}
}

func TestEstimateRejectsEmptyProfile(t *testing.T) {
	if _, err := Estimate(context.Background(), &profile.Profile{Name: "x"}, Rates{}, uarch.BaseConfig(), Options{}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

// TestStatisticalSimulationIsMicroarchDependent demonstrates the paper's
// criticism: rates measured at the base configuration misestimate a
// different cache configuration, where the clone (by construction) adapts.
func TestStatisticalSimulationIsMicroarchDependent(t *testing.T) {
	p, tr := capture(t, "basicmath", 300_000)
	base := uarch.BaseConfig()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	baseRates, err := MeasureRates(context.Background(), tr, base, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	// Target configuration: tiny L1D.
	tiny := base
	tiny.L1D.Size = 512
	tiny.Name = "tiny-l1d"
	detailedTiny := timeDetailed(t, p, tiny)
	// Statistical simulation reuses the BASE rates at the tiny config —
	// exactly what a fixed statistical profile would do.
	estStale, err := Estimate(context.Background(), prof, baseRates, tiny, Options{TraceLen: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	// With re-measured rates it does fine — the point is that the
	// profile must be re-collected per configuration.
	freshRates, err := MeasureRates(context.Background(), tr, tiny, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	estFresh, err := Estimate(context.Background(), prof, freshRates, tiny, Options{TraceLen: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	staleErr := math.Abs(estStale.IPC()-detailedTiny.IPC()) / detailedTiny.IPC()
	freshErr := math.Abs(estFresh.IPC()-detailedTiny.IPC()) / detailedTiny.IPC()
	t.Logf("tiny L1D: detailed %.3f, stale-rates %.3f (err %.1f%%), fresh-rates %.3f (err %.1f%%)",
		detailedTiny.IPC(), estStale.IPC(), 100*staleErr, estFresh.IPC(), 100*freshErr)
	if staleErr < freshErr {
		t.Errorf("stale rates tracked the new configuration better than fresh ones — unexpected")
	}
}

// TestMeasureRatesContext: the rate walk observes its context. A
// cancelled ctx returns its cause before any rate is computed, and a
// supervised ctx's heartbeat ticks at least once per walk chunk, so a
// long walk under a watchdog never reads as stuck. The ticking ctx
// yields the same rates as an unsupervised one.
func TestMeasureRatesContext(t *testing.T) {
	_, tr := capture(t, "crc32", 300_000)
	cfg := uarch.BaseConfig()

	cause := errors.New("stage deadline")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := MeasureRates(ctx, tr, cfg, 0); !errors.Is(err, cause) {
		t.Fatalf("cancelled ctx: err = %v, want %v", err, cause)
	}

	beats := 0
	live := supervise.WithTicker(context.Background(), func() { beats++ })
	got, err := MeasureRates(live, tr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks := int((tr.Insts() + dyntrace.ChunkLen - 1) / dyntrace.ChunkLen)
	if chunks < 2 || beats < chunks {
		t.Fatalf("%d heartbeat ticks over %d chunks", beats, chunks)
	}
	want, err := MeasureRates(context.Background(), tr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("rates under a heartbeat %+v, unsupervised %+v", got, want)
	}
}
