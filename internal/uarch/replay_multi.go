package uarch

import (
	"context"
	"sync"

	"perfclone/internal/dyntrace"
	"perfclone/internal/supervise"
)

// templatesFor returns the per-trace decode product the replay walk
// memoizes on the trace (dyntrace.Trace.DecodeCache): a TraceInst
// template per static instruction, since everything but Addr and Taken
// is static. Building it is O(statics) and happens once per trace, no
// matter how many sweeps replay it.
func templatesFor(t *dyntrace.Trace) []TraceInst {
	return t.DecodeCache(func() any {
		statics := t.Statics()
		tmpl := make([]TraceInst, len(statics))
		for i := range statics {
			st := &statics[i]
			tmpl[i] = TraceInst{
				PC:     st.PC,
				Class:  st.Class,
				Dest:   st.Dest,
				Src1:   st.Src1,
				Src2:   st.Src2,
				Branch: st.Branch,
				Jump:   st.Jump,
				IsMem:  st.Mem,
			}
		}
		return tmpl
	}).([]TraceInst)
}

// expand turns one chunk of a trace walk into full TraceInst records in
// dst (len(dst) >= streamChunk) and returns them. Template expansion
// goes 64 records per taken-bitset word: the chunk base is 64-aligned,
// so each group of 64 dynamic positions shares one word and the
// per-record work is pure shift/mask lane math over the hoisted word.
func expand(dst, tmpl []TraceInst, c *dyntrace.Chunk) []TraceInst {
	mi := 0
	for k := 0; k < len(c.SIDs); {
		w := c.Taken[k>>6]
		end := min(k+64, len(c.SIDs))
		for ; k < end; k++ {
			ti := tmpl[c.SIDs[k]]
			if ti.IsMem {
				ti.Addr = c.Addrs[mi]
				mi++
			}
			ti.Taken = w>>(uint(k)&63)&1 == 1
			dst[k] = ti
		}
	}
	return dst[:len(c.SIDs)]
}

// ReplayMultiWorkers times one captured trace on every configuration in
// cfgs — the one trace walk every timing run goes through. Each
// streamChunk of TraceInst records is decoded once and fed to all
// pipelines; each config keeps its own independent Sim, so the returned
// Stats are bit-identical to len(cfgs) single-config ReplayContext calls
// and the decode cost (static-id stream, address stream, taken bitset,
// template expansion) is amortized N ways. This is what makes wide config
// sweeps (Table 3's design changes, the predictor and L2 sweeps) cost one
// trace walk instead of N.
//
// The per-config pipelines are spread over workers goroutines: a producer
// decodes each chunk once and fans it out to the workers behind a chunk
// barrier, and each worker drives a fixed stripe of the configs (worker w
// owns configs w, w+workers, …). Results are gathered in config order
// after every worker has drained, so the Stats are bit-identical for any
// worker count — each pipeline consumes the identical chunk sequence at
// the identical boundaries, just on a different goroutine. workers is
// clamped to [1, len(cfgs)]; 1 selects the serial walk.
//
// Cancellation drains before returning: once ctx is cancelled the
// producer stops decoding and the call blocks until every in-flight
// worker has finished its chunk, so no goroutine touches the trace (or
// its mmap) after ReplayMultiWorkers returns. The error is the context's
// *cause* (context.Cause), not a bare context error: a run killed by a
// supervision watchdog surfaces supervise.ErrStuck, distinguishable from
// a user ^C's context.Canceled, so retry layers can tell a wedged worker
// from an interrupt. Both producer and workers also tick any supervision
// heartbeat carried by ctx once per chunk, feeding the watchdog that
// makes that detection.
func ReplayMultiWorkers(ctx context.Context, t *dyntrace.Trace, cfgs []Config, lim Limits, workers int) ([]Stats, error) {
	sims := make([]*Sim, len(cfgs))
	for i, cfg := range cfgs {
		s, err := newSim(cfg)
		if err != nil {
			return nil, err
		}
		s.warmup = lim.Warmup
		sims[i] = s
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	walk, tmpl := t.Walk(lim.MaxInsts), templatesFor(t)
	var err error
	if workers <= 1 {
		err = replayWalkSerial(ctx, walk, tmpl, sims)
	} else {
		err = replayWalkParallel(ctx, walk, tmpl, sims, workers)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Stats, len(sims))
	for i, s := range sims {
		out[i] = s.finish()
	}
	return out, nil
}

// replayWalkSerial is the single-goroutine walk: decode a chunk, feed it
// to every pipeline, repeat. The trace walk polls ctx (and ticks any
// supervision heartbeat) once per chunk.
func replayWalkSerial(ctx context.Context, walk *dyntrace.Walk, tmpl []TraceInst, sims []*Sim) error {
	buf := make([]TraceInst, streamChunk)
	for !walk.Done() {
		c, err := walk.Next(ctx)
		if err != nil {
			return err
		}
		chunk := expand(buf, tmpl, c)
		for _, s := range sims {
			s.consume(chunk)
		}
	}
	return nil
}

// replayWalkParallel runs the producer/barrier/worker topology. Two
// chunk buffers double-buffer the walk — the producer decodes chunk k+1
// while the workers consume chunk k — and each buffer carries a token
// channel holding one token per worker: a worker returns its token when
// it finishes a buffer, and the producer collects all of them before
// rewriting that buffer. That reclaim is the chunk barrier: a buffer is
// never mutated while any pipeline can still read it, and since sims are
// striped (disjoint per worker) and the chunk is read-only to consume,
// the walk is race-free without any locking in the cycle loop. Only the
// producer touches the trace walk; it never crosses a goroutine boundary.
//
// On a decode error or cancellation the producer stops feeding, closes
// the feeds, and waits for every worker to drain its queue (at most nbuf
// chunks each) before returning — the caller can release the trace's
// backing storage immediately after.
func replayWalkParallel(ctx context.Context, walk *dyntrace.Walk, tmpl []TraceInst, sims []*Sim, workers int) error {
	const nbuf = 2
	type slot struct {
		chunk []TraceInst
		free  chan struct{}
	}
	var slots [nbuf]slot
	for b := range slots {
		slots[b] = slot{
			chunk: make([]TraceInst, streamChunk),
			free:  make(chan struct{}, workers),
		}
		for w := 0; w < workers; w++ {
			slots[b].free <- struct{}{}
		}
	}
	type msg struct{ buf, n int }
	feeds := make([]chan msg, workers)
	for w := range feeds {
		feeds[w] = make(chan msg, nbuf)
	}
	// Producer and workers share one heartbeat: any goroutine still
	// making progress keeps the watchdog satisfied, so only a genuinely
	// wedged topology (producer and every worker silent) trips it.
	tick := supervise.TickerFrom(ctx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for m := range feeds[w] {
				chunk := slots[m.buf].chunk[:m.n]
				for j := w; j < len(sims); j += workers {
					sims[j].consume(chunk)
				}
				if tick != nil {
					tick()
				}
				slots[m.buf].free <- struct{}{}
			}
		}(w)
	}
	var err error
	for b := 0; !walk.Done(); b = (b + 1) % nbuf {
		// The walk polls ctx and decodes the chunk's columns into its own
		// buffers, so that overlaps the workers still reading buffer b.
		var c *dyntrace.Chunk
		if c, err = walk.Next(ctx); err != nil {
			break
		}
		// Reclaim buffer b: every worker must have released it.
		for w := 0; w < workers; w++ {
			<-slots[b].free
		}
		m := msg{buf: b, n: len(expand(slots[b].chunk, tmpl, c))}
		for w := range feeds {
			feeds[w] <- m
		}
	}
	for w := range feeds {
		close(feeds[w])
	}
	wg.Wait()
	return err
}
