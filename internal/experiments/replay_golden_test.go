package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/funcsim"
	"perfclone/internal/prog"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// goldenWorkloads pin the replay-equivalence guarantee across distinct
// behaviour classes: streaming (crc32), data-dependent control (qsort),
// and strided/recursive access (fft).
var goldenWorkloads = []string{"crc32", "qsort", "fft"}

// TestReplayGoldenCacheMPI proves the packed-stream cache replay produces
// bit-identical misses-per-instruction across all 28 configurations:
// CacheMPI over an exact-length capture, CacheMPI over the prefix of a
// longer capture, and an execution-driven reference — one standalone
// cache.Cache per configuration fed straight from the functional
// simulator — must agree exactly. The 1M-instruction crc32 and qsort
// cases are the examples/cachestudy inputs.
func TestReplayGoldenCacheMPI(t *testing.T) {
	cfgs := cache.Sweep28()
	type tc struct {
		name     string
		maxInsts uint64
	}
	var cases []tc
	for _, name := range goldenWorkloads {
		cases = append(cases, tc{name, 200_000})
	}
	cases = append(cases, tc{"crc32", 1_000_000}, tc{"qsort", 1_000_000})
	for _, c := range cases {
		w, err := workloads.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.CaptureContext(context.Background(), p, c.maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		long, err := dyntrace.CaptureContext(context.Background(), p, 2*c.maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CacheMPI(context.Background(), tr, cfgs, c.maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := CacheMPI(context.Background(), long, cfgs, c.maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		exec := executedMPI(t, p, cfgs, c.maxInsts)
		for k := range cfgs {
			if math.Float64bits(got[k]) != math.Float64bits(exec[k]) || math.Float64bits(replay[k]) != math.Float64bits(exec[k]) {
				t.Errorf("%s@%d cfg %s: MPI %v (exact capture), %v (prefix of a longer capture), %v (execution)",
					c.name, c.maxInsts, cfgs[k], got[k], replay[k], exec[k])
			}
		}
	}
}

// executedMPI is the execution-driven reference for CacheMPI: it runs p
// for maxInsts instructions, feeding every data reference to one
// standalone cache per configuration.
func executedMPI(t *testing.T, p *prog.Program, cfgs []cache.Config, maxInsts uint64) []float64 {
	t.Helper()
	caches := make([]*cache.Cache, len(cfgs))
	for k, cfg := range cfgs {
		caches[k] = cache.MustNew(cfg)
	}
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunBatch(funcsim.Limits{MaxInsts: maxInsts}, func(events []funcsim.Event) error {
		for i := range events {
			if op := events[i].Inst.Op; op.IsMem() {
				for _, c := range caches {
					c.Access(events[i].Addr, op.IsStore())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mpi := make([]float64, len(caches))
	for k, c := range caches {
		mpi[k] = float64(c.Stats().Misses) / float64(res.Insts)
	}
	return mpi
}

// TestReplayMultiGolden28 pins the fused timing replay against
// single-config replay over the full 28-configuration cache grid mapped onto the base
// pipeline: one decode pass feeding 28 independent Sims must be
// bit-identical, per uarch.Stats field, to 28 separate trace walks. Run
// under `go test -race` in CI this also covers concurrent fused replays
// of one trace across workloads.
func TestReplayMultiGolden28(t *testing.T) {
	base := uarch.BaseConfig()
	sweep := cache.Sweep28()
	cfgs := make([]uarch.Config, len(sweep))
	for i, cc := range sweep {
		cfgs[i] = base
		cfgs[i].L1D = cc
		cfgs[i].L1D.Name = "L1D"
		cfgs[i].Name = cc.String()
	}
	lim := uarch.Limits{Warmup: 20_000, MaxInsts: 80_000}
	for _, name := range goldenWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.CaptureContext(context.Background(), p, lim.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			serial, err := uarch.ReplayContext(context.Background(), tr, cfg, lim)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.Name, err)
			}
			if !reflect.DeepEqual(fused[i], serial) {
				t.Errorf("%s %s: fused replay diverges from serial", name, cfg.Name)
			}
		}
		// The parallel walk over the same grid must be bit-identical too:
		// 4 workers stripe the 28 configs (worker w owns configs w, w+4, …)
		// while a producer goroutine decodes each chunk exactly once.
		par, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if !reflect.DeepEqual(par[i], fused[i]) {
				t.Errorf("%s %s: parallel replay diverges from fused", name, cfg.Name)
			}
		}
	}
}

// TestParallelGridRace drives the atomic-counter work pool with more
// workers than items and with the full flattened Table 3 grid; run under
// `go test -race` it checks the pool for data races, and the comparison
// against a serial run checks that results are independent of worker
// count.
func TestParallelGridRace(t *testing.T) {
	opts := smallOpts()
	opts.Parallel = true
	opts.Workers = 8
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig4Par, err := Fig4Context(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, sumsPar, err := Table3Context(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}

	serial := opts
	serial.Parallel = false
	fig4Ser, err := Fig4Context(context.Background(), pairs, serial)
	if err != nil {
		t.Fatal(err)
	}
	_, sumsSer, err := Table3Context(context.Background(), pairs, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig4Par, fig4Ser) {
		t.Error("Fig4 results depend on worker count")
	}
	if !reflect.DeepEqual(sumsPar, sumsSer) {
		t.Error("Table3 summaries depend on worker count")
	}
}

// TestMissRateForCancelled requires the ablation's single-config miss
// rate to stop on a cancelled context with the context's cause and no
// result, whether it replays a covering trace or must capture one.
func TestMissRateForCancelled(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	const budget = 100_000
	tr, err := dyntrace.CaptureContext(context.Background(), p, budget)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("cell abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	cfg := cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32}
	for _, c := range []struct {
		name string
		tr   *dyntrace.Trace
	}{{"covering trace", tr}, {"no trace", nil}} {
		got, err := missRateFor(ctx, p, c.tr, cfg, budget)
		if !errors.Is(err, cause) || got != 0 {
			t.Errorf("%s: got (%v, %v), want (0, %v)", c.name, got, err, cause)
		}
	}
}
