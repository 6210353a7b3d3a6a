package uarch

import (
	"context"
	"fmt"
	"sync"

	"perfclone/internal/dyntrace"
	"perfclone/internal/supervise"
)

// decodeTable is the per-trace decode product the replay walk memoizes on
// the trace (dyntrace.Trace.DecodeCache): a TraceInst template per
// static instruction (everything but Addr and Taken is static) plus the
// memory-op flags the chunk decoder needs to pair static ids with the
// packed address stream. Building it is O(statics) and happens once per
// trace, no matter how many sweeps replay it.
type decodeTable struct {
	tmpl  []TraceInst
	isMem []bool
}

func decodeTableFor(t *dyntrace.Trace) *decodeTable {
	return t.DecodeCache(func() any {
		statics := t.Statics()
		dt := &decodeTable{
			tmpl:  make([]TraceInst, len(statics)),
			isMem: make([]bool, len(statics)),
		}
		for i := range statics {
			st := &statics[i]
			dt.tmpl[i] = TraceInst{
				PC:     st.PC,
				Class:  st.Class,
				Dest:   st.Dest,
				Src1:   st.Src1,
				Src2:   st.Src2,
				Branch: st.Branch,
				Jump:   st.Jump,
				IsMem:  st.Mem,
			}
			dt.isMem[i] = st.Mem
		}
		return dt
	}).(*decodeTable)
}

// chunkDecoder walks a trace's dynamic columns one streamChunk at a
// time, expanding static-id records into full TraceInst values. It owns
// the trace's Cursor exclusively: in the parallel walk only the producer
// goroutine touches it, and the decoded chunk is handed to the consumers
// as a read-only buffer — the cursor never crosses a goroutine boundary.
type chunkDecoder struct {
	t       *dyntrace.Trace
	dt      *decodeTable
	taken   []uint64
	cur     *dyntrace.Cursor
	sidBuf  []uint32
	addrBuf []uint64
	base    uint64
	n       uint64
}

func newChunkDecoder(t *dyntrace.Trace, dt *decodeTable, taken []uint64, n uint64) *chunkDecoder {
	return &chunkDecoder{
		t: t, dt: dt, taken: taken, n: n,
		cur:     t.NewCursor(),
		sidBuf:  make([]uint32, streamChunk),
		addrBuf: make([]uint64, streamChunk),
	}
}

// done reports that the whole requested window has been decoded.
func (d *chunkDecoder) done() bool { return d.base >= d.n }

// next decodes the next chunk into dst (len(dst) >= streamChunk) and
// returns the record count; the chunk boundaries are the exact
// streamChunk boundaries of every walk, serial or parallel.
// The cursor streams both dynamic columns in chunk-sized bites: on a
// zero-copy (v2) trace it varint-decodes straight out of the mmap, on a
// captured trace it returns aliasing subslices. Either way a malformed
// column surfaces as a validation error here, not a panic.
func (d *chunkDecoder) next(dst []TraceInst) (int, error) {
	c := d.n - d.base
	if c > streamChunk {
		c = streamChunk
	}
	sids, err := d.cur.NextSIDs(d.sidBuf[:c])
	if err != nil {
		return 0, fmt.Errorf("uarch: replay: %w", err)
	}
	nmem := 0
	isMem := d.dt.isMem
	for _, sid := range sids {
		if int(sid) >= len(isMem) {
			return 0, fmt.Errorf("uarch: replay %s: static id %d out of range (table has %d entries)",
				d.t.Program().Name, sid, len(isMem))
		}
		if isMem[sid] {
			nmem++
		}
	}
	addrs, err := d.cur.NextAddrs(d.addrBuf[:nmem])
	if err != nil {
		return 0, fmt.Errorf("uarch: replay: %w", err)
	}
	// Template expansion, 64 records per taken-bitset word: base is
	// always streamChunk-aligned, so each group of 64 dynamic positions
	// shares one word and the per-record work is pure shift/mask lane
	// math over the hoisted word.
	tmpl := d.dt.tmpl
	wbase := d.base >> 6
	mi := 0
	for k := 0; k < len(sids); {
		w := d.taken[wbase+uint64(k)>>6]
		end := k + 64
		if end > len(sids) {
			end = len(sids)
		}
		for ; k < end; k++ {
			sid := sids[k]
			ti := tmpl[sid]
			if isMem[sid] {
				ti.Addr = addrs[mi]
				mi++
			}
			ti.Taken = w>>(uint(k)&63)&1 == 1
			dst[k] = ti
		}
	}
	d.base += c
	return int(c), nil
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
	n := t.Insts()
	if lim.MaxInsts > 0 && n > lim.MaxInsts {
		n = lim.MaxInsts
	}
	dt := decodeTableFor(t)
	takenBits := t.TakenBits()
	if uint64(len(takenBits))*64 < n {
		return nil, fmt.Errorf("uarch: replay %s: taken bitset has %d words, need %d for %d instructions",
			t.Program().Name, len(takenBits), (n+63)/64, n)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	dec := newChunkDecoder(t, dt, takenBits, n)
	var err error
	if workers <= 1 {
		err = replayWalkSerial(ctx, dec, sims)
	} else {
		err = replayWalkParallel(ctx, dec, sims, workers)
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
// to every pipeline, repeat. ctx is polled (and any supervision
// heartbeat ticked) once per chunk.
func replayWalkSerial(ctx context.Context, dec *chunkDecoder, sims []*Sim) error {
	chunk := make([]TraceInst, streamChunk)
	tick := supervise.TickerFrom(ctx)
	for !dec.done() {
		if err := supervise.Cause(ctx); err != nil {
			return err
		}
		if tick != nil {
			tick()
		}
		c, err := dec.next(chunk)
		if err != nil {
			return err
		}
		for _, s := range sims {
			s.consume(chunk[:c])
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
// the walk is race-free without any locking in the cycle loop.
//
// On a decode error or cancellation the producer stops feeding, closes
// the feeds, and waits for every worker to drain its queue (at most nbuf
// chunks each) before returning — the caller can release the trace's
// backing storage immediately after.
func replayWalkParallel(ctx context.Context, dec *chunkDecoder, sims []*Sim, workers int) error {
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
	for b := 0; !dec.done(); b = (b + 1) % nbuf {
		if err = supervise.Cause(ctx); err != nil {
			break
		}
		if tick != nil {
			tick()
		}
		// Reclaim buffer b: every worker must have released it.
		for w := 0; w < workers; w++ {
			<-slots[b].free
		}
		var c int
		c, err = dec.next(slots[b].chunk)
		if err != nil {
			break
		}
		m := msg{buf: b, n: c}
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
