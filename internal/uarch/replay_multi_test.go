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
}

// TestReplayMultiWorkersRace runs several fused replays of one shared
// trace concurrently, each on its own goroutine — the way a run's cells
// and a cell's two sides walk traces at once. Run under -race this
// checks that a Trace is safe for concurrent walks; the result
// comparison checks that concurrency never leaks between walks.
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
			got[r], errs[r] = ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
		}(r)
	}
	wg.Wait()
	for r := 0; r < replays; r++ {
		if errs[r] != nil {
			t.Fatalf("replay %d: %v", r, errs[r])
		}
		if !reflect.DeepEqual(got[r], want) {
			t.Errorf("replay %d: stats differ from a lone fused replay", r)
		}
	}
}

// pollCancelCtx reports Canceled after its Err method has been polled
// limit times — a deterministic way to cancel the walk mid-trace, since
// the walk polls Err exactly once per chunk.
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
// ctx.Err() with no stats, and the trace must be fully reusable right
// after: a clean replay returns complete stats.
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
	ctx := &pollCancelCtx{Context: context.Background(), limit: 2}
	st, err := ReplayMultiWorkers(ctx, tr, cfgs, lim, 1)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st != nil {
		t.Fatal("cancelled walk returned stats")
	}
	clean, err := ReplayMultiWorkers(context.Background(), tr, cfgs[:1], lim, 1)
	if err != nil {
		t.Fatalf("post-cancel replay: %v", err)
	}
	if clean[0].Insts == 0 {
		t.Fatal("post-cancel replay retired no instructions")
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
	branches, addrs := flatColumns(t, good)
	cfgs := []Config{BaseConfig()}
	lim := Limits{MaxInsts: good.Insts()}

	// Branch bitset shorter than the path's conditional branches.
	short := dyntrace.FromColumns(p, branches[:len(branches)/2], addrs, good.Insts(), good.Halted())
	if _, err := ReplayMultiWorkers(context.Background(), short, cfgs, lim, 1); err == nil || !strings.Contains(err.Error(), "has no direction") {
		t.Errorf("short branch bitset: err=%v, want a missing-direction error", err)
	}

	// A header that claims more instructions than the path reaches
	// before its halt: crc32's whole run, plus 64 instructions past it.
	whole, err := dyntrace.CaptureContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	wBranches, wAddrs := flatColumns(t, whole)
	overrun := dyntrace.FromColumns(p, append(wBranches, 0), wAddrs, whole.Insts()+64, true)
	if _, err := ReplayMultiWorkers(context.Background(), overrun, cfgs, Limits{}, 1); err == nil || !strings.Contains(err.Error(), "halted") {
		t.Errorf("instructions past the halt: err=%v, want a halted-path error", err)
	}

	// Fewer packed addresses than the sid stream's memory references.
	starved := dyntrace.FromColumns(p, branches, addrs[:len(addrs)/2], good.Insts(), good.Halted())
	if _, err := ReplayMultiWorkers(context.Background(), starved, cfgs, lim, 1); err == nil {
		t.Error("starved address column replayed without error")
	}
}

// flatColumns walks the whole of tr and returns what FromColumns
// takes: the direction of each conditional branch, packed in path
// order, and the addresses.
func flatColumns(t *testing.T, tr *dyntrace.Trace) (branches, addrs []uint64) {
	t.Helper()
	nb := 0
	for w := tr.Walk(0); !w.Done(); {
		c, err := w.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for k, sid := range c.SIDs {
			if !tr.Statics()[sid].Branch {
				continue
			}
			if nb%64 == 0 {
				branches = append(branches, 0)
			}
			branches[nb/64] |= (c.Taken[k/64] >> (k % 64) & 1) << (nb % 64)
			nb++
		}
		addrs = append(addrs, c.Addrs...)
	}
	return branches, addrs
}
