package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"perfclone/internal/dyntrace"
	"perfclone/internal/experiments"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/store"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// The experiments defaults Prepare runs with: 1M-instruction profiles
// and traces of twice the 500k timing budget.
const (
	profileInsts = 1_000_000
	traceBudget  = 1_000_000
)

// ingestOp is one cold Prepare of every workload into an empty store,
// then a second Prepare, through a fresh store handle, that loads all of
// it back. Both dispatch the workloads in a seeded order.
func (b *bench) ingestOp(storeDir string, parent int) (cold, warm []*experiments.Pair, c store.Counters, err error) {
	defer func() {
		if err != nil {
			closePairs(cold)
			closePairs(warm)
		}
	}()
	for _, pass := range []*[]*experiments.Pair{&cold, &warm} {
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, nil, c, err
		}
		opts := figureOptions(st, b.nproc, b.shuffled(workloads.Names()))
		err = b.tr.do(parent, "experiments.prepare", func(int) error {
			*pass, err = prepare(b.ctx, opts)
			return err
		})
		if err != nil {
			return nil, nil, c, err
		}
		sc := st.Counters()
		c.TraceHits += sc.TraceHits
		c.TraceMisses += sc.TraceMisses
		c.ProfileHits += sc.ProfileHits
		c.ProfileMisses += sc.ProfileMisses
		c.Quarantined += sc.Quarantined
	}
	return cold, warm, c, nil
}

// checkIngest requires every stored trace to pass dyntrace.Verify and
// every reloaded trace to hold the instruction count it was captured
// with.
func checkIngest(storeDir string, cold, warm []*experiments.Pair) error {
	files, err := filepath.Glob(filepath.Join(storeDir, "traces", "*.dtr"))
	if err != nil {
		return err
	}
	if len(files) != 2*len(cold) {
		return fmt.Errorf("store holds %d traces, want %d", len(files), 2*len(cold))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := dyntrace.Verify(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(f), err)
		}
	}
	if len(warm) != len(cold) {
		return fmt.Errorf("read back %d workloads, want %d", len(warm), len(cold))
	}
	for i := range cold {
		for _, tt := range [][2]*dyntrace.Trace{{cold[i].RealTrace, warm[i].RealTrace}, {cold[i].CloneTrace, warm[i].CloneTrace}} {
			if tt[0].Insts() != tt[1].Insts() {
				return fmt.Errorf("%s: reloaded %d instructions, captured %d", tt[1].Program().Name, tt[1].Insts(), tt[0].Insts())
			}
		}
	}
	return nil
}

// ingestChecked runs one operation, checks it, and removes its store. It
// returns the operation's time and the store's size.
func (b *bench) ingestChecked(i, parent int) (d time.Duration, c store.Counters, bytes int64, err error) {
	dir := filepath.Join(b.work, fmt.Sprintf("ingest%d", i))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	cold, warm, c, err := b.ingestOp(dir, parent)
	d = time.Since(t0)
	if err != nil {
		return 0, c, 0, err
	}
	defer closePairs(cold)
	defer closePairs(warm)
	b.attempted++
	if err := checkIngest(dir, cold, warm); err != nil {
		b.fail("ingest: %v", err)
	}
	bytes, err = dirBytes(dir)
	return d, c, bytes, err
}

func runIngest(b *bench) error {
	// Set-up is a cold Prepare into a throwaway store, which lets the
	// page cache and the heap settle before timing.
	err := b.setup(func(i int) error {
		dir := filepath.Join(b.work, fmt.Sprintf("setup%d", i))
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		pairs, err := prepare(b.ctx, figureOptions(st, b.nproc, b.shuffled(workloads.Names())))
		closePairs(pairs)
		return err
	})
	if err != nil {
		return err
	}
	if b.tr.on {
		return traceIngest(b)
	}

	var storeBytes int64
	n := 0
	times, wall, err := b.measure(func() (time.Duration, error) {
		n++
		d, _, sz, err := b.ingestChecked(n, 0)
		storeBytes = sz
		return d, err
	})
	if err != nil {
		return err
	}
	b.setE2E("op_ms", ms(median(times)), "ms")
	b.setE2E("ops_per_s", float64(len(times))/wall.Seconds(), "1/s")
	fmt.Fprintf(os.Stderr, "perfbench: ingest: store %.1f MB\n", float64(storeBytes)/1e6)
	return nil
}

func traceIngest(b *bench) error {
	b.tr.on = false
	untraced, _, _, err := b.ingestChecked(0, 0)
	if err != nil {
		return err
	}
	b.tr.on = true
	root := b.tr.begin(0, "ingest.op")
	_, c, sz, err := b.ingestChecked(1, root)
	b.tr.end(root)
	if err != nil {
		return err
	}
	// The operation is the two Prepares; the checks after them are not.
	kids := b.tr.children(root)
	if len(kids) != 2 {
		return fmt.Errorf("traced ingest recorded %d prepare spans, want 2", len(kids))
	}
	traced := time.Duration(kids[1].End - b.tr.get(root).Start)

	derived := b.tr.begin(0, "derived.ingest")
	dir := filepath.Join(b.work, "derived")
	defer os.RemoveAll(dir)
	var ids [2]int
	for pass, cold := range []bool{true, false} {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		names := workloads.Names()
		ids[pass] = b.tr.begin(derived, "derived.prepare")
		err = forAll(len(names), b.nproc, func(i int) error {
			pr, err := b.derivePrepare(st, names[i], cold, ids[pass])
			closePairs([]*experiments.Pair{pr})
			return err
		})
		b.tr.end(ids[pass])
		if err != nil {
			return err
		}
	}
	b.tr.end(derived)

	acct := account{}
	for pass, k := range kids {
		acct.split(b.tr, "experiments.prepare", k.dur(), ids[pass])
	}
	acct.add("ingest.unattributed", traced-kids[0].dur()-kids[1].dur())
	acct.report(b, "ingest", traced, 1)
	b.setLayer("tracing_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	b.storeLayers(c, dir)
	b.setLayer("store_mb", float64(sz)/1e6, "MB")
	return nil
}

// derivePrepare repeats experiments.PrepareContext's work for one
// workload through direct layer calls, one span per call: a cold pass
// profiles, captures and saves; a warm one loads from the store.
func (b *bench) derivePrepare(st *store.Store, name string, cold bool, sp int) (*experiments.Pair, error) {
	ctx := b.ctx
	pr := &experiments.Pair{Name: name}
	err := b.tr.do(sp, "workloads.build", func(int) error {
		w, err := workloads.ByName(name)
		if err == nil {
			pr.Real = w.Build()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	hash := store.ProgramHash(pr.Real)
	var ok bool
	err = b.tr.do(sp, "store.load_profile", func(int) error {
		pr.Profile, ok, err = st.LoadProfile(name, hash, profileInsts)
		return err
	})
	if err == nil && ok == cold {
		err = fmt.Errorf("%s: profile hit=%v in a store that should be cold=%v", name, ok, cold)
	}
	if err != nil {
		return nil, err
	}
	if cold {
		err = b.tr.do(sp, "profile.collect", func(int) error {
			pr.Profile, err = profile.CollectContext(ctx, pr.Real, profile.Options{MaxInsts: profileInsts})
			return err
		})
		if err == nil {
			err = b.tr.do(sp, "store.save_profile", func(int) error {
				return st.SaveProfile(name, hash, profileInsts, pr.Profile)
			})
		}
		if err != nil {
			return nil, err
		}
	}
	err = b.tr.do(sp, "synth.generate", func(int) error {
		pr.Clone, err = synth.GenerateContext(ctx, pr.Profile, synth.Config{})
		return err
	})
	if err != nil {
		return nil, err
	}
	trace := func(label string, p *prog.Program) (*dyntrace.Trace, error) {
		var t *dyntrace.Trace
		err := b.tr.do(sp, "store.load_trace", func(int) error {
			var err error
			t, ok, err = st.LoadTrace(label, p, traceBudget)
			return err
		})
		if err == nil && ok == cold {
			err = fmt.Errorf("%s: trace hit=%v in a store that should be cold=%v", label, ok, cold)
		}
		if err != nil || !cold {
			return t, err
		}
		err = b.tr.do(sp, "dyntrace.capture", func(int) error {
			t, err = dyntrace.CaptureContext(ctx, p, traceBudget)
			return err
		})
		if err == nil {
			err = b.tr.do(sp, "store.save_trace", func(int) error { return st.SaveTrace(label, t, traceBudget) })
		}
		return t, err
	}
	if pr.RealTrace, err = trace(name, pr.Real); err != nil {
		return nil, err
	}
	if pr.CloneTrace, err = trace(name+"-clone", pr.Clone.Program); err != nil {
		pr.RealTrace.Close()
		return nil, err
	}
	return pr, nil
}
