package profile_test

import (
	"bytes"
	"context"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// saved is the profile's Save bytes, the form the store keeps.
func saved(t *testing.T, pr *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockBudgets returns two budgets from n on: one whose last
// instruction is inside a block and one whose last instruction ends a
// block.
func blockBudgets(t *testing.T, tr *dyntrace.Trace, n uint64) (mid, end uint64) {
	t.Helper()
	st := tr.Statics()
	w := tr.Walk(0)
	for !w.Done() && (mid == 0 || end == 0) {
		c, err := w.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for k, sid := range c.SIDs {
			i := c.Base + uint64(k)
			if i < n-1 {
				continue
			}
			blk := &tr.Program().Blocks[st[sid].Block]
			if int(st[sid].Index) == len(blk.Insts)-1 {
				if end == 0 {
					end = i + 1
				}
			} else if mid == 0 {
				mid = i + 1
			}
		}
	}
	if mid == 0 || end == 0 {
		t.Fatalf("%s: no mid-block and block-end budgets from %d", tr.Program().Name, n)
	}
	return mid, end
}

// TestProfileFromTraceMatchesCollect: the collector's two feeds, a walk
// over a captured trace (FromTrace) and a streamed execution
// (CollectContext), save the same bytes as the per-event reference
// profiler. It covers every workload, its default clone and the large
// input variants, at the default budget, the fidelity gate's budget, a
// budget ending inside a block, one ending on a block's last instruction
// (where the reference records an edge to a block that may never run),
// and 0, which runs past nothing to halt. PerBlockNodes is checked at
// the fidelity budget.
func TestProfileFromTraceMatchesCollect(t *testing.T) {
	ctx := context.Background()
	type program struct {
		name  string
		build func(*testing.T) *prog.Program
	}
	var progs []program
	for _, w := range workloads.All() {
		w := w
		real := func(*testing.T) *prog.Program { return w.Build() }
		progs = append(progs, program{w.Name, real}, program{w.Name + "-clone", func(t *testing.T) *prog.Program {
			prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: profile.DefaultMaxInsts})
			if err != nil {
				t.Fatal(err)
			}
			clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return clone.Program
		}})
	}
	for _, w := range workloads.Large() {
		w := w
		progs = append(progs, program{w.Name, func(*testing.T) *prog.Program { return w.Build() }})
	}
	for _, pg := range progs {
		pg := pg
		t.Run(pg.name, func(t *testing.T) {
			t.Parallel()
			p := pg.build(t)
			whole, err := dyntrace.CaptureContext(context.Background(), p, 0)
			if err != nil {
				t.Fatal(err)
			}
			mid, end := blockBudgets(t, whole, 150_000)
			type tc struct {
				budget   uint64
				perBlock bool
			}
			cases := []tc{{1_000_000, false}, {400_000, false}, {mid, false}, {end, false}, {0, false}, {400_000, true}}
			for _, c := range cases {
				opts := profile.Options{MaxInsts: c.budget, PerBlockNodes: c.perBlock}
				ref, err := profile.CollectReference(ctx, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := saved(t, ref)
				streamed, err := profile.CollectContext(ctx, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saved(t, streamed), want) {
					t.Errorf("budget %d perBlock %v: CollectContext differs from the reference", c.budget, c.perBlock)
				}
				// A trace of the whole run serves every budget; a capture
				// of exactly the budget is the shortest one that does.
				exact, err := dyntrace.CaptureContext(context.Background(), p, c.budget)
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range []*dyntrace.Trace{whole, exact} {
					walked, err := profile.FromTrace(ctx, tr, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(saved(t, walked), want) {
						t.Errorf("budget %d perBlock %v, trace of %d: FromTrace differs from the reference",
							c.budget, c.perBlock, tr.Insts())
					}
				}
			}
		})
	}
}

// TestFromTraceRejectsShortTrace: a trace that stopped short of the
// budget without halting cannot stand in for the profile's execution.
func TestFromTraceRejectsShortTrace(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{10_001, 0} {
		if _, err := profile.FromTrace(context.Background(), tr, profile.Options{MaxInsts: budget}); err == nil {
			t.Errorf("budget %d: FromTrace accepted a %d-instruction trace that did not halt", budget, tr.Insts())
		}
	}
}
