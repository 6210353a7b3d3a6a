package uarch

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/workloads"
)

// multiConfigs is a small grid spanning the dimensions the fused replay
// must keep independent per pipeline: width, window sizes, predictor,
// caches, prefetching, and issue discipline.
func multiConfigs() []Config {
	base := BaseConfig()
	cfgs := []Config{base}
	c := base
	c.Name = "2x-width"
	c.Width = 2
	cfgs = append(cfgs, c)
	c = base
	c.Name = "2x-rob-lsq"
	c.ROBSize *= 2
	c.LSQSize *= 2
	cfgs = append(cfgs, c)
	c = base
	c.Name = "half-l1d"
	c.L1D.Size /= 2
	cfgs = append(cfgs, c)
	c = base
	c.Name = "bimodal"
	c.Predictor = "bimodal"
	cfgs = append(cfgs, c)
	c = base
	c.Name = "prefetch"
	c.NextLinePrefetch = true
	cfgs = append(cfgs, c)
	c = base
	c.Name = "inorder"
	c.InOrder = true
	cfgs = append(cfgs, c)
	return cfgs
}

// TestReplayMultiMatchesSerial: one fused ReplayMultiWorkers pass must
// be bit-identical (reflect.DeepEqual on full Stats) to N single-config
// ReplayContext calls for every configuration — fusion only amortizes decode, never
// couples the pipelines.
func TestReplayMultiMatchesSerial(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := dyntrace.CaptureContext(context.Background(), p, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiConfigs()
	lim := Limits{Warmup: 30_000, MaxInsts: 100_000}
	fused, err := ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		serial, err := ReplayContext(context.Background(), tr, cfg, lim)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(fused[i], serial) {
			t.Errorf("%s: fused stats differ from serial replay", cfg.Name)
		}
	}
	// The parallel walk must stay bit-identical for every worker count,
	// including counts that do not divide the config count and counts
	// larger than it (clamped).
	for _, workers := range []int{2, 3, len(cfgs), len(cfgs) + 5} {
		par, err := ReplayMultiWorkers(context.Background(), tr, cfgs, lim, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, cfg := range cfgs {
			if !reflect.DeepEqual(par[i], fused[i]) {
				t.Errorf("workers=%d %s: parallel stats differ from serial fused replay", workers, cfg.Name)
			}
		}
	}
}

// TestReplayMultiWorkersRace runs several parallel fused replays of the
// same trace concurrently — the shape a parallel Table 3 run produces,
// where forEach workers each launch a multi-worker walk over the same
// trace. Run under -race this checks the producer/barrier/worker
// topology; the result comparison checks that concurrency never leaks
// between pipelines.
func TestReplayMultiWorkersRace(t *testing.T) {
	w, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := dyntrace.CaptureContext(context.Background(), p, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiConfigs()
	lim := Limits{Warmup: 20_000, MaxInsts: 80_000}
	want, err := ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
	if err != nil {
		t.Fatal(err)
	}
	const replays = 4
	got := make([][]Stats, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for r := 0; r < replays; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r], errs[r] = ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1+r)
		}(r)
	}
	wg.Wait()
	for r := 0; r < replays; r++ {
		if errs[r] != nil {
			t.Fatalf("replay %d: %v", r, errs[r])
		}
		if !reflect.DeepEqual(got[r], want) {
			t.Errorf("replay %d (workers=%d): stats differ from serial fused replay", r, 1+r)
		}
	}
}

// pollCancelCtx reports Canceled after its Err method has been polled
// limit times — a deterministic way to cancel the walk mid-trace, since
// the producer polls Err exactly once per chunk.
type pollCancelCtx struct {
	context.Context
	polls atomic.Int32
	limit int32
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestReplayMultiWorkersCancelDrains: cancelling mid-walk must return
// ctx.Err() with no stats, for both the serial and parallel walks, and
// the parallel walk must have joined every worker before returning (the
// race detector would flag a straggler still consuming a chunk buffer
// while the test goroutine reuses the trace).
func TestReplayMultiWorkersCancelDrains(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	// >2 chunks so a 2-poll cancel lands strictly mid-trace.
	tr, err := dyntrace.CaptureContext(context.Background(), p, 3*65536)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiConfigs()
	lim := Limits{MaxInsts: tr.Insts()}
	for _, workers := range []int{1, 3} {
		ctx := &pollCancelCtx{Context: context.Background(), limit: 2}
		st, err := ReplayMultiWorkers(ctx, tr, cfgs, lim, workers)
		if err != context.Canceled {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if st != nil {
			t.Fatalf("workers=%d: cancelled walk returned stats", workers)
		}
		// The trace must be fully reusable immediately: a clean replay
		// right after the drain returns complete, correct stats.
		clean, err := ReplayMultiWorkers(context.Background(), tr, cfgs[:1], lim, 1)
		if err != nil {
			t.Fatalf("workers=%d: post-cancel replay: %v", workers, err)
		}
		if clean[0].Insts == 0 {
			t.Fatalf("workers=%d: post-cancel replay retired no instructions", workers)
		}
	}
}

// TestReplayMultiValidation: malformed hand-built traces must surface as
// errors from the replay walk, never panics — the replay path is fed by
// storage that may be corrupt or mismatched.
func TestReplayMultiValidation(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	good, err := dyntrace.CaptureContext(context.Background(), p, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// The whole 10k-instruction trace is one walk chunk, so that chunk
	// holds every column; stores are re-based to the chunk's first
	// reference, which is the trace's first.
	c, err := good.Walk(0).Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	taken, addrs, stores := c.Taken, c.Addrs, c.Stores
	cfgs := []Config{BaseConfig()}
	lim := Limits{MaxInsts: good.Insts()}

	// Taken bitset shorter than the instruction count.
	short := dyntrace.FromColumns(p, taken[:len(taken)/2], addrs, stores, good.Insts(), good.Halted())
	if _, err := ReplayMultiWorkers(context.Background(), short, cfgs, lim, 1); err == nil || !strings.Contains(err.Error(), "taken bitset") {
		t.Errorf("short taken bitset: err=%v, want taken-bitset validation error", err)
	}

	// A header that claims more instructions than the path reaches
	// before its halt: crc32's whole run, plus 64 instructions past it.
	whole, err := dyntrace.CaptureContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	wTaken, wAddrs, wStores := flatColumns(t, whole)
	overrun := dyntrace.FromColumns(p, append(wTaken, 0), wAddrs, wStores, whole.Insts()+64, true)
	if _, err := ReplayMultiWorkers(context.Background(), overrun, cfgs, Limits{}, 1); err == nil || !strings.Contains(err.Error(), "halted") {
		t.Errorf("instructions past the halt: err=%v, want a halted-path error", err)
	}

	// Fewer packed addresses than the sid stream's memory references.
	starved := dyntrace.FromColumns(p, taken, addrs[:len(addrs)/2], stores, good.Insts(), good.Halted())
	if _, err := ReplayMultiWorkers(context.Background(), starved, cfgs, lim, 1); err == nil {
		t.Error("starved address column replayed without error")
	}
}

// flatColumns walks the whole of tr and returns its taken words, its
// addresses and its store bits packed from reference 0, as FromColumns
// takes them.
func flatColumns(t *testing.T, tr *dyntrace.Trace) (taken, addrs, stores []uint64) {
	t.Helper()
	for w := tr.Walk(0); !w.Done(); {
		c, err := w.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		taken = append(taken, c.Taken...)
		for j, a := range c.Addrs {
			n := len(addrs)
			if n%64 == 0 {
				stores = append(stores, 0)
			}
			stores[n/64] |= (c.Stores[j/64] >> (j % 64) & 1) << (n % 64)
			addrs = append(addrs, a)
		}
	}
	return taken, addrs, stores
}
