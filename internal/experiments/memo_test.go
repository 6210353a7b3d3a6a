package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"perfclone/internal/baseline"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// computeOnceOpts runs the parallel path (two cells at once) on two
// workloads with short runs.
func computeOnceOpts() Options {
	return Options{
		Workloads:    []string{"crc32", "qsort"},
		ProfileInsts: 250_000,
		TimingWarmup: 50_000,
		TimingInsts:  150_000,
		Parallel:     true,
		Workers:      2,
	}
}

// freshPairs copies pairs without their memos: the same programs and
// traces, nothing computed yet.
func freshPairs(pairs []*Pair) []*Pair {
	out := make([]*Pair, len(pairs))
	for i, pr := range pairs {
		out[i] = &Pair{
			Name: pr.Name, Real: pr.Real, Profile: pr.Profile, Clone: pr.Clone,
			RealTrace: pr.RealTrace, CloneTrace: pr.CloneTrace,
		}
	}
	return out
}

// stageRuns are the registry runs that print each `-run all` stage.
var stageRuns = map[string][]string{
	"fig4":     {"fig4", "fig5"},
	"fig6and7": {"fig6and7"},
	"table3":   {"table3", "fig8"},
	"ablation": {"ablation"},
}

// renderStage renders one `-run all` stage through the registry.
func renderStage(ctx context.Context, stage string, pairs []*Pair, opts Options) (string, error) {
	var buf bytes.Buffer
	for _, run := range stageRuns[stage] {
		if err := render(ctx, run, pairs, opts, &buf); err != nil {
			return "", err
		}
	}
	return buf.String(), nil
}

// computeCounter counts testComputeHook calls per (pair, memo key).
type computeCounter struct {
	mu     sync.Mutex
	counts map[computeKey]int
}

type computeKey struct {
	pair string
	key  any
}

func (c *computeCounter) install(t *testing.T) {
	c.counts = make(map[computeKey]int)
	testComputeHook = func(pair string, key any) {
		c.mu.Lock()
		c.counts[computeKey{pair, key}]++
		c.mu.Unlock()
	}
	t.Cleanup(func() { testComputeHook = nil })
}

// TestComputeOnceRunAll runs every `-run all` stage on one set of pairs,
// with Figures 6/7 both before and after Table 3, and requires that no
// (program, configuration, limits) timing result and no (program,
// budget) cache sweep is computed twice — while every stage renders
// byte-identically to the same stage run alone on fresh pairs.
func TestComputeOnceRunAll(t *testing.T) {
	opts := computeOnceOpts()
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alone := make(map[string]string)
	for _, stage := range []string{"fig4", "fig6and7", "table3", "ablation"} {
		if alone[stage], err = renderStage(ctx, stage, freshPairs(pairs), opts); err != nil {
			t.Fatal(err)
		}
	}
	o := opts.withDefaults()
	lim := uarch.Limits{Warmup: o.TimingWarmup, MaxInsts: o.TimingInsts}
	base := func(clone bool) statsKey { return newStatsKey(clone, uarch.BaseConfig(), lim) }
	for _, order := range [][]string{
		{"fig4", "fig6and7", "table3", "ablation"},
		{"fig4", "table3", "fig6and7", "ablation"},
	} {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			var cc computeCounter
			cc.install(t)
			run := freshPairs(pairs)
			for _, stage := range order {
				got, err := renderStage(ctx, stage, run, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != alone[stage] {
					t.Errorf("%s after %v differs from %s alone:\n%s\nvs\n%s", stage, order, stage, got, alone[stage])
				}
			}
			for k, n := range cc.counts {
				if n > 1 {
					t.Errorf("%s: %#v computed %d times", k.pair, k.key, n)
				}
			}
			// Fig4 and the ablation share two sweeps per pair; Figs. 6/7
			// and Table 3 share the base column; Table 3 adds the five
			// design changes — per side, 1 sweep and 6 timing results.
			if want := len(pairs) * 2 * (1 + 6); len(cc.counts) != want {
				t.Errorf("%d results computed, want %d", len(cc.counts), want)
			}
			for _, pr := range run {
				for _, clone := range []bool{false, true} {
					if cc.counts[computeKey{pr.Name, base(clone)}] != 1 {
						t.Errorf("%s clone=%v: base configuration not computed exactly once", pr.Name, clone)
					}
				}
			}
		})
	}
}

// TestComputeOnceCancelledTable3 cancels Table 3 while a cell's fused
// walk is running: the cancelled cell must leave nothing in its pair's
// memo, and re-running Table 3 on the same pairs must render
// byte-identically to a run on fresh pairs.
func TestComputeOnceCancelledTable3(t *testing.T) {
	opts := computeOnceOpts()
	opts.Parallel = false // a deterministic cancellation point
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderStage(context.Background(), "table3", freshPairs(pairs), opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed bool
	ctx = supervise.WithTicker(ctx, func() {
		if armed {
			cancel() // the walk's first heartbeat after the cell starts
		}
	})
	testCellHook = func(_ context.Context, stage, cell string) {
		armed = armed || (stage == "table3" && cell == "qsort")
	}
	defer func() { testCellHook = nil }()
	if _, err := renderStage(ctx, "table3", pairs, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Table 3: err %v, want context.Canceled", err)
	}
	testCellHook = nil
	if !armed {
		t.Fatal("the qsort cell never started")
	}
	if n := len(pairs[0].memo.stats); n != 12 {
		t.Errorf("the finished crc32 cell memoized %d results, want 12", n)
	}
	if n := len(pairs[1].memo.stats); n != 0 {
		t.Fatalf("the cancelled qsort cell left %d memo entries", n)
	}

	got, err := renderStage(context.Background(), "table3", pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Table 3 after a cancelled run differs:\n%s\nvs\n%s", got, want)
	}
}

// TestComputeOnceTrainingTargets pins the ablation's meter walk of the
// real trace (trainingWalk) to baseline.MeasureTargets, which executes
// the program, bit for bit on every bundled workload.
func TestComputeOnceTrainingTargets(t *testing.T) {
	train := baseline.TrainingConfig{
		Cache:     cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
		Predictor: "gap",
		MaxInsts:  200_000,
	}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.CaptureContext(context.Background(), p, 2*train.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := trainingWalk(context.Background(), tr, train)
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.MeasureTargets(p, train)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MissRate) != math.Float64bits(want.MissRate) ||
			math.Float64bits(got.MispredRate) != math.Float64bits(want.MispredRate) {
			t.Errorf("%s: trace-walked targets %+v, executed %+v", name, got, want)
		}
	}
}

// TestComputeOnceAblationStore runs the ablation against a store cold,
// warm, and with a corrupted baseline trace: the warm run must load both
// baseline artifacts of every pair (2 profile and 2 trace hits, no
// misses), the corrupt one must be quarantined and recomputed, and all
// three must render byte-identically to a run without a store.
func TestComputeOnceAblationStore(t *testing.T) {
	opts := computeOnceOpts()
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderStage(context.Background(), "ablation", pairs, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	run := func() store.Counters {
		t.Helper()
		st, err := store.Open(dir, store.WithLog(&bytes.Buffer{}))
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Store = st
		got, err := renderStage(context.Background(), "ablation", freshPairs(pairs), o)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ablation with a store differs:\n%s\nvs\n%s", got, want)
		}
		return st.Counters()
	}
	n := uint64(len(pairs))
	if c := run(); c.ProfileMisses != n || c.TraceMisses != n || c.ProfileHits != 0 || c.TraceHits != 0 {
		t.Fatalf("cold run counters %+v, want %d profile and %d trace misses", c, n, n)
	}
	if c := run(); c.ProfileHits != n || c.TraceHits != n || c.ProfileMisses != 0 || c.TraceMisses != 0 {
		t.Fatalf("warm run counters %+v, want %d profile and %d trace hits, no misses", c, n, n)
	}
	corruptOneArtifact(t, dir, "traces/*-baseline-*.dtr")
	if c := run(); c.Quarantined != 1 || c.TraceMisses != 1 {
		t.Fatalf("corrupt baseline trace: counters %+v, want 1 quarantined and recomputed", c)
	}
}

// TestTraceShortPairErrors: pairs prepared at a small timing budget, then
// rendered at a larger one, hold traces too short for the window. Every
// timing and cache stage must fail with an error that names the pair and
// the window, rather than capture a longer trace behind the store's back.
func TestTraceShortPairErrors(t *testing.T) {
	short := computeOnceOpts()
	short.TimingInsts = 100_000
	long := computeOnceOpts()
	long.TimingInsts = 250_000
	pairs, err := Prepare(short)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		for _, tr := range []*dyntrace.Trace{pr.RealTrace, pr.CloneTrace} {
			if tr.Halted() || tr.Insts() >= long.TimingInsts {
				t.Fatalf("%s: trace of %d insts (halted %v) already covers the long budget; the test would not reach the error",
					pr.Name, tr.Insts(), tr.Halted())
			}
		}
	}
	for _, stage := range []string{"fig4", "fig6and7", "table3", "ablation"} {
		_, err := renderStage(context.Background(), stage, freshPairs(pairs), long)
		msg := fmt.Sprint(err)
		named := strings.Contains(msg, pairs[0].Name) || strings.Contains(msg, pairs[1].Name)
		if !named || !strings.Contains(msg, "trace does not cover the first") {
			t.Errorf("%s on short pairs: err = %v, want a short-trace error naming the pair", stage, err)
		}
	}
}
