package uarch

import (
	"context"

	"perfclone/internal/dyntrace"
)

// templatesFor builds a TraceInst template per static instruction of
// the trace, since everything but Addr and Taken is static. It is
// O(statics), small against any replay of the trace.
func templatesFor(t *dyntrace.Trace) []TraceInst {
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
// and the decode cost (static-id rebuild, address stream, taken bitset,
// template expansion) is amortized N ways. This is what makes wide config
// sweeps (Table 3's design changes, the predictor and L2 sweeps) cost one
// trace walk instead of N.
//
// The walk runs on the caller's goroutine. workers is ignored; it stays
// in the signature until the function folds into
// Replay(ctx, t, cfgs, lim), and callers pass 1. Parallelism lives one
// level up: the pool over a stage's cells, and a cell's real and clone
// sides (internal/experiments). The trace is read-only here, so any
// number of walks may share it concurrently, and none touches it (or its
// mmap) after returning.
//
// The walk polls ctx and ticks any supervision heartbeat ctx carries
// once per chunk. A cancelled walk returns the context's *cause*
// (context.Cause), not a bare context error: a run killed by a
// supervision watchdog surfaces supervise.ErrStuck, distinguishable from
// a user ^C's context.Canceled, so retry layers can tell a wedged walk
// from an interrupt.
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
	if err := replayWalk(ctx, t.Walk(lim.MaxInsts), templatesFor(t), sims); err != nil {
		return nil, err
	}
	out := make([]Stats, len(sims))
	for i, s := range sims {
		out[i] = s.finish()
	}
	return out, nil
}

// replayWalk decodes a chunk, feeds it to every pipeline, and repeats.
// The trace walk polls ctx (and ticks any supervision heartbeat) once
// per chunk.
func replayWalk(ctx context.Context, walk *dyntrace.Walk, tmpl []TraceInst, sims []*Sim) error {
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
