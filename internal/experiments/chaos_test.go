package experiments

// Chaos suite: the experiment grid must survive a store under randomized
// injected faults — transient I/O errors, torn writes, bit flips, failed
// renames — and still render byte-identical figures, because every
// artifact is integrity-checked on load and every failure either retries,
// degrades to recompute, or (writes) degrades to running uncached. The
// fault plan is pure function of its seed: a failing case logs the seed
// and PERFCLONE_CHAOS_SEED replays the exact fault sequence.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"perfclone/internal/dyntrace"
	"perfclone/internal/faultinject"
	"perfclone/internal/store"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// chaosSeed picks the fault-plan seed: reproducible from the environment,
// fresh otherwise.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	if env := os.Getenv("PERFCLONE_CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("PERFCLONE_CHAOS_SEED=%q: %v", env, err)
		}
		return seed
	}
	return uint64(time.Now().UnixNano())
}

// chaosPlan is the randomized-fault configuration the acceptance
// criteria call for: >=5% transient errors plus every other fault kind.
func chaosPlan(seed uint64) faultinject.Plan {
	return faultinject.Plan{
		Seed:       seed,
		Transient:  0.05,
		NoSpace:    0.02,
		TornWrite:  0.03,
		BitFlip:    0.02,
		RenameFail: 0.02,
		MaxLatency: 50 * time.Microsecond,
	}
}

// chaosOpts keeps chaos runs fast and deterministic: a small grid, short
// budgets, serial execution (so the injected fault sequence and the log
// are reproducible), warnings captured instead of spamming stderr.
func chaosOpts(st *store.Store, log *bytes.Buffer) Options {
	o := Options{
		Workloads:    []string{"crc32", "qsort"},
		ProfileInsts: 200_000,
		TimingWarmup: 20_000,
		TimingInsts:  60_000,
		Store:        st,
		Log:          log,
	}
	// PERFCLONE_CHAOS_WATCHDOG layers the supervision substrate over the
	// fault storm: every cell runs under a heartbeat watchdog with a
	// retry budget, and the byte-identity assertions below must still
	// hold — supervision may kill and re-run work, never change results.
	if env := os.Getenv("PERFCLONE_CHAOS_WATCHDOG"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			panic("PERFCLONE_CHAOS_WATCHDOG: " + err.Error())
		}
		o.Watchdog = d
		o.TaskRetries = 2
	}
	return o
}

// corruptOneArtifact flips a byte in the middle of the lexically first
// artifact matching pattern under the store dir.
func corruptOneArtifact(t *testing.T, dir, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no artifact matches %s in %s (err=%v)", pattern, dir, err)
	}
	sort.Strings(matches)
	path := matches[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestChaosGridByteIdentical(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (re-run with PERFCLONE_CHAOS_SEED=%d to reproduce)", seed, seed)

	// Fault-free reference run against its own pristine store.
	refStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var refLog bytes.Buffer
	want, err := renderRun(context.Background(), chaosOpts(refStore, &refLog))
	if err != nil {
		t.Fatal(err)
	}

	// Cold run with every store I/O routed through the fault injector.
	dir := t.TempDir()
	ffs := faultinject.New(faultinject.OS, chaosPlan(seed))
	openChaos := func() *store.Store {
		var log bytes.Buffer
		st, err := store.Open(dir, store.WithFS(ffs), store.WithLog(&log))
		if err != nil {
			t.Fatalf("seed %d: open chaos store: %v", seed, err)
		}
		return st
	}
	var log1 bytes.Buffer
	st1 := openChaos()
	got, err := renderRun(context.Background(), chaosOpts(st1, &log1))
	if err != nil {
		t.Fatalf("seed %d: cold chaos run must degrade, not fail: %v\nlog:\n%s", seed, err, log1.String())
	}
	if got != want {
		t.Fatalf("seed %d: cold chaos output differs from fault-free run:\n--- want ---\n%s\n--- got ---\n%s", seed, want, got)
	}
	if ffs.Injected() == 0 {
		t.Fatalf("seed %d: fault injector never fired; the chaos run proved nothing", seed)
	}

	// Corrupt one trace and one profile on disk, then run again: both
	// must be quarantined and recomputed, output still byte-identical.
	corruptOneArtifact(t, dir, "traces/*.dtr")
	corruptOneArtifact(t, dir, "profiles/*.json")
	var log2 bytes.Buffer
	st2 := openChaos()
	got2, err := renderRun(context.Background(), chaosOpts(st2, &log2))
	if err != nil {
		t.Fatalf("seed %d: chaos run over corrupt artifacts: %v\nlog:\n%s", seed, err, log2.String())
	}
	if got2 != want {
		t.Fatalf("seed %d: output over corrupt artifacts differs:\n--- want ---\n%s\n--- got ---\n%s", seed, want, got2)
	}
	if q := st2.Counters().Quarantined; q < 2 {
		t.Fatalf("seed %d: quarantined %d artifacts, want >= 2 (the trace and the profile)", seed, q)
	}

	// Resume leg: reusing checkpoints under the same fault plan is still
	// byte-identical.
	var log3 bytes.Buffer
	st3 := openChaos()
	opts := chaosOpts(st3, &log3)
	opts.Resume = true
	got3, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatalf("seed %d: chaos resume run: %v\nlog:\n%s", seed, err, log3.String())
	}
	if got3 != want {
		t.Fatalf("seed %d: chaos resume output differs:\n--- want ---\n%s\n--- got ---\n%s", seed, want, got3)
	}
}

// TestChaosMmapParallelReplay walks one trace whose columns alias a
// FaultFS.Map-served image — the zero-copy load branch — on two
// goroutines at once, as a cell's real and clone sides walk their
// traces concurrently. The fault plan is latency-only: injected delays
// shuffle goroutine interleavings without corrupting the image, so every
// walk must be bit-identical to an in-memory replay. Closing the trace
// right after the join pins the drain guarantee: no walk may still hold
// a subslice of the mapping once it has returned (under -race a
// straggler reading after Close races with the next round's load).
func TestChaosMmapParallelReplay(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (re-run with PERFCLONE_CHAOS_SEED=%d to reproduce)", seed, seed)

	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	const budget = 120_000
	tr, err := dyntrace.CaptureContext(context.Background(), p, budget)
	if err != nil {
		t.Fatal(err)
	}

	// A small grid spanning pipeline and cache dimensions.
	base := uarch.BaseConfig()
	cfgs := []uarch.Config{base}
	for _, mut := range []func(*uarch.Config){
		func(c *uarch.Config) { c.Name = "2x-width"; c.Width = 2 },
		func(c *uarch.Config) { c.Name = "half-l1d"; c.L1D.Size /= 2 },
		func(c *uarch.Config) { c.Name = "bimodal"; c.Predictor = "bimodal" },
		func(c *uarch.Config) { c.Name = "prefetch"; c.NextLinePrefetch = true },
		func(c *uarch.Config) { c.Name = "inorder"; c.InOrder = true },
	} {
		c := base
		mut(&c)
		cfgs = append(cfgs, c)
	}
	lim := uarch.Limits{Warmup: 20_000, MaxInsts: 100_000}
	want, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Persist once through a pristine store, then serve every load
	// through the fault injector's Map path.
	dir := t.TempDir()
	clean, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.SaveTrace("crc32", tr, budget); err != nil {
		t.Fatal(err)
	}
	ffs := faultinject.New(faultinject.OS, faultinject.Plan{
		Seed:       seed,
		MaxLatency: 50 * time.Microsecond,
	})
	var log bytes.Buffer
	st, err := store.Open(dir, store.WithFS(ffs), store.WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		mapped, ok, err := st.LoadTrace("crc32", p, budget)
		if err != nil || !ok {
			t.Fatalf("seed %d round %d: mmap load: ok=%v err=%v\nlog:\n%s", seed, round, ok, err, log.String())
		}
		var got [2][]uarch.Stats
		var errs [2]error
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k], errs[k] = uarch.ReplayMultiWorkers(context.Background(), mapped, cfgs, lim, 1)
			}()
		}
		wg.Wait()
		if err := mapped.Close(); err != nil {
			t.Fatalf("seed %d round %d: close mapped trace: %v", seed, round, err)
		}
		for k := range got {
			if errs[k] != nil {
				t.Fatalf("seed %d round %d walk %d: replay over mapped trace: %v", seed, round, k, errs[k])
			}
			if !reflect.DeepEqual(got[k], want) {
				t.Fatalf("seed %d round %d walk %d: mapped replay diverges from in-memory replay", seed, round, k)
			}
		}
	}
}

func TestStrictStoreCorruptArtifactFatal(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	opts := chaosOpts(st, &log)
	opts.Workloads = []string{"crc32"}
	if _, err := renderRun(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	path := corruptOneArtifact(t, dir, "traces/*.dtr")

	strict, err := store.Open(dir, store.WithStrict(true), store.WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	sopts := chaosOpts(strict, &log)
	sopts.Workloads = []string{"crc32"}
	if _, err := renderRun(context.Background(), sopts); err == nil {
		t.Fatalf("-strict-store must make the corrupt artifact %s a hard error", path)
	} else if !strings.Contains(err.Error(), "strict") {
		t.Fatalf("strict-mode error should say how to recover, got: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("strict mode must not quarantine: %v", err)
	}
}

func TestQuarantineRecomputeThenWarm(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	st, err := store.Open(dir, store.WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(st, &log)
	opts.Workloads = []string{"crc32"}
	want, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := corruptOneArtifact(t, dir, "traces/*.dtr")

	// Second run: the corrupt trace is quarantined exactly once and
	// recomputed; the rest of the grid stays cached.
	before := st.Counters()
	got, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("recomputed run differs from original")
	}
	after := st.Counters()
	if q := after.Quarantined - before.Quarantined; q != 1 {
		t.Fatalf("quarantined %d artifacts, want exactly 1", q)
	}
	if m := after.TraceMisses - before.TraceMisses; m != 1 {
		t.Fatalf("trace misses %d, want 1 (only the quarantined artifact recomputes)", m)
	}
	if !strings.Contains(log.String(), "store: QUARANTINED") {
		t.Fatalf("missing greppable warning, log: %q", log.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(corrupted))); err != nil {
		t.Fatalf("corrupt artifact not preserved in quarantine/: %v", err)
	}

	// Third run: the recomputed artifact was re-saved, so the store is
	// warm again — no misses, no further quarantines.
	if _, err := renderRun(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	final := st.Counters()
	if final.TraceMisses != after.TraceMisses || final.Quarantined != after.Quarantined {
		t.Fatalf("third run not fully warm: %+v vs %+v", final, after)
	}
	if final.TraceHits <= after.TraceHits {
		t.Fatal("third run loaded nothing from the store")
	}
}

func TestDegradedWritesStillRenderIdentical(t *testing.T) {
	// Reference without any store at all.
	var refLog bytes.Buffer
	opts := chaosOpts(nil, &refLog)
	opts.Workloads = []string{"crc32"}
	want, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Every single write tears: no artifact or checkpoint can ever be
	// persisted, so the run degrades to fully uncached — and still
	// completes with identical output.
	ffs := faultinject.New(faultinject.OS, faultinject.Plan{Seed: 42, TornWrite: 1.0})
	var log bytes.Buffer
	st, err := store.Open(t.TempDir(), store.WithFS(ffs), store.WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	dopts := chaosOpts(st, &log)
	dopts.Workloads = []string{"crc32"}
	got, err := renderRun(context.Background(), dopts)
	if err != nil {
		t.Fatalf("all-writes-torn run must degrade, not fail: %v\nlog:\n%s", err, log.String())
	}
	if got != want {
		t.Fatalf("degraded-writes output differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if !strings.Contains(log.String(), "DEGRADED") {
		t.Fatalf("missing greppable degradation warning, log: %q", log.String())
	}
}
