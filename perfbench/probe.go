package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/fidelity"
	"perfclone/internal/funcsim"
	"perfclone/internal/jobqueue"
	"perfclone/internal/profile"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

const probeReps = 3

// timed runs fn probeReps times inside spans named name and returns the
// median duration.
func (b *bench) timed(parent int, name string, fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := b.tr.do(parent, name, func(int) error { return fn() }); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, time.Since(t0))
	}
	return median(ds), nil
}

// probeLayers measures each layer's speed by calling its public entry
// point directly on one seed-chosen workload. These numbers are derived:
// they describe the layer, not the workload's own traffic.
func probeLayers(b *bench) error {
	ctx := b.ctx
	names := workloads.Names()
	name := names[b.rng.Intn(len(names))]
	w, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	p := w.Build()
	root := b.tr.begin(0, "probe."+name)
	defer b.tr.end(root)
	rate := func(n uint64, d time.Duration) float64 { return float64(n) / d.Seconds() / 1e6 }

	var res funcsim.Result
	d, err := b.timed(root, "funcsim.run", func() error {
		m, err := funcsim.New(p)
		if err != nil {
			return err
		}
		res, err = m.RunBatch(funcsim.Limits{MaxInsts: profileInsts}, func([]funcsim.Event) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("funcsim.minst_per_s", rate(res.Insts, d), "Minst/s")

	var prof *profile.Profile
	d, err = b.timed(root, "profile.collect", func() error {
		prof, err = profile.CollectContext(ctx, p, profile.Options{MaxInsts: profileInsts})
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("profile.minst_per_s", rate(res.Insts, d), "Minst/s")

	clone, err := synth.GenerateContext(ctx, prof, synth.Config{})
	if err != nil {
		return err
	}
	d, err = b.timed(root, "fidelity.check", func() error {
		_, err := fidelity.CheckContext(ctx, prof, clone, fidelity.Options{})
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("fidelity.check_ms", ms(d), "ms")

	var t *dyntrace.Trace
	d, err = b.timed(root, "dyntrace.capture", func() error {
		t, err = dyntrace.CaptureContext(ctx, p, traceBudget)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("dyntrace.capture_minst_per_s", rate(t.Insts(), d), "Minst/s")
	var img bytes.Buffer
	d, err = b.timed(root, "dyntrace.encode", func() error {
		img.Reset()
		return t.Save(&img)
	})
	if err != nil {
		return err
	}
	b.setLayer("dyntrace.encode_mb_per_s", float64(img.Len())/d.Seconds()/1e6, "MB/s")
	b.setLayer("dyntrace.bytes_per_inst", float64(img.Len())/float64(t.Insts()), "B")

	loaded, err := dyntrace.LoadBytes(img.Bytes(), nil, p)
	if err != nil {
		return err
	}
	d, err = b.timed(root, "dyntrace.decode", func() error { return walkCursor(loaded) })
	if err != nil {
		return err
	}
	b.setLayer("dyntrace.decode_minst_per_s", rate(loaded.Insts(), d), "Minst/s")

	if err := b.probeUarch(root, t); err != nil {
		return err
	}
	if err := b.probeCache(root, t); err != nil {
		return err
	}
	return b.probeQueue(root)
}

// walkCursor streams both columns of t through a Cursor, as replay does.
func walkCursor(t *dyntrace.Trace) error {
	c := t.NewCursor()
	sids := make([]uint32, 1<<16)
	addrs := make([]uint64, 1<<16)
	for left := t.Insts(); left > 0; {
		n := min(left, uint64(len(sids)))
		if _, err := c.NextSIDs(sids[:n]); err != nil {
			return err
		}
		left -= n
	}
	for left := t.NumMem(); left > 0; {
		n := min(left, uint64(len(addrs)))
		if _, err := c.NextAddrs(addrs[:n]); err != nil {
			return err
		}
		left -= n
	}
	return nil
}

// probeUarch times single-configuration replay for the base machine and
// each design change, the fused multi-configuration replay at nproc
// workers, and the same at 1 worker for the scaling ratio.
func (b *bench) probeUarch(root int, t *dyntrace.Trace) error {
	ctx := b.ctx
	lim := uarch.Limits{Warmup: 150_000, MaxInsts: 500_000}
	insts := min(lim.MaxInsts, t.Insts())
	cfgs := table3Configs()
	for i, cfg := range cfgs {
		d, err := b.timed(root, "uarch.replay", func() error {
			_, err := uarch.ReplayContext(ctx, t, cfg, lim)
			return err
		})
		if err != nil {
			return err
		}
		b.setLayer("uarch."+uarchProbeConfigs[i]+"_minst_per_s", float64(insts)/d.Seconds()/1e6, "Minst/s")
	}
	multi := func(workers int) (time.Duration, error) {
		return b.timed(root, "uarch.replay_multi", func() error {
			_, err := uarch.ReplayMultiWorkers(ctx, t, cfgs, lim, workers)
			return err
		})
	}
	dN, err := multi(b.nproc)
	if err != nil {
		return err
	}
	b.setLayer("uarch.minst_per_s", float64(insts)*float64(len(cfgs))/dN.Seconds()/1e6, "Minst/s")
	if b.nproc == 1 {
		fmt.Fprintln(os.Stderr, "perfbench: uarch.scaling_x: SKIP (1 core)")
		b.setLayer("uarch.scaling_x", 0, "x")
		return nil
	}
	d1, err := multi(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: uarch.scaling_x: %.2fx at %d workers over 1\n", d1.Seconds()/dN.Seconds(), b.nproc)
	b.setLayer("uarch.scaling_x", d1.Seconds()/dN.Seconds(), "x")
	return nil
}

// probeCache times each Sweep28 configuration alone and the 28 together,
// over the trace's data-reference stream.
func (b *bench) probeCache(root int, t *dyntrace.Trace) error {
	addrs, bits := t.Mem(0)
	if len(addrs) == 0 {
		return fmt.Errorf("probe workload %s makes no memory references", t.Program().Name)
	}
	sweep := func(cfgs []cache.Config) (time.Duration, error) {
		return b.timed(root, "cache.sweep", func() error {
			rs, err := cache.NewReplaySet(cfgs)
			if err != nil {
				return err
			}
			return rs.AccessStreamContext(b.ctx, addrs, bits)
		})
	}
	all := cache.Sweep28()
	for _, cfg := range all {
		d, err := sweep([]cache.Config{cfg})
		if err != nil {
			return err
		}
		b.setLayer(cacheMetricName(cfg), float64(d.Nanoseconds())/float64(len(addrs)), "ns")
	}
	d, err := sweep(all)
	if err != nil {
		return err
	}
	b.setLayer("cache.sweep28_mref_per_s", float64(len(addrs))/d.Seconds()/1e6, "Mref/s")
	return nil
}

// probeQueue times Submit and Claim+Complete on a scratch job queue;
// each is a fsynced WAL append.
func (b *bench) probeQueue(root int) (err error) {
	dir := filepath.Join(b.work, "probe-queue")
	defer os.RemoveAll(dir)
	q, err := jobqueue.Open(filepath.Join(dir, "jobs.jsonl"), jobqueue.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := q.Close(); err == nil {
			err = cerr
		}
	}()
	spec := jobqueue.Spec{Kind: jobqueue.KindClone, Workload: "crc32", Validate: true}
	var submit, complete []time.Duration
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		job, err := q.Submit("bench", spec)
		t1 := time.Now()
		if err == nil {
			_, err = q.Claim(b.ctx)
		}
		if err == nil {
			err = q.Complete(job.ID, "probe.out", nil)
		}
		t2 := time.Now()
		if err != nil {
			return err
		}
		b.tr.add(root, "jobqueue.submit", t0, t1)
		b.tr.add(root, "jobqueue.complete", t1, t2)
		submit = append(submit, t1.Sub(t0))
		complete = append(complete, t2.Sub(t1))
	}
	b.setLayer("jobqueue.submit_ms", ms(median(submit)), "ms")
	b.setLayer("jobqueue.complete_ms", ms(median(complete)), "ms")
	return nil
}
