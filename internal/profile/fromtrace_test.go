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

// traceBytes is the trace's Save bytes, the form the store keeps.
func traceBytes(t *testing.T, tr *dyntrace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileFromTraceMatchesCollect: the collector's two feeds, a
// streamed execution (CollectContext) and one run that also captures the
// trace (CaptureContext), save the same profile bytes as the per-event
// reference profiler, and the fused run's trace saves
// dyntrace.CaptureContext's bytes. It covers every workload, its default
// clone and the large input variants, at the default budget, the
// fidelity gate's budget, a budget ending inside a block, one ending on a
// block's last instruction (where the reference records an edge to a
// block that may never run), 0, which runs past nothing to halt, and
// profile budgets below the trace budget, where the collector stops
// inside a chunk. PerBlockNodes is checked at the fidelity budget.
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
				trace, prof uint64
				perBlock    bool
			}
			cases := []tc{
				{1_000_000, 1_000_000, false}, {400_000, 400_000, false}, {mid, mid, false}, {end, end, false},
				{0, 0, false}, {400_000, 400_000, true}, {1_000_000, end, false}, {0, mid, true},
			}
			for _, c := range cases {
				opts := profile.Options{MaxInsts: c.prof, PerBlockNodes: c.perBlock}
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
					t.Errorf("budget %d perBlock %v: CollectContext differs from the reference", c.prof, c.perBlock)
				}
				tr, fused, err := profile.CaptureContext(ctx, p, c.trace, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saved(t, fused), want) {
					t.Errorf("trace %d, profile %d, perBlock %v: CaptureContext's profile differs from the reference",
						c.trace, c.prof, c.perBlock)
				}
				captured, err := dyntrace.CaptureContext(ctx, p, c.trace)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(traceBytes(t, tr), traceBytes(t, captured)) {
					t.Errorf("trace %d, profile %d: CaptureContext's trace differs from dyntrace.CaptureContext's",
						c.trace, c.prof)
				}
			}
		})
	}
}

// TestCaptureRejectsProfilePastTrace: a profile budget the run would stop
// short of is an argument error, whether or not the program halts first.
func TestCaptureRejectsProfilePastTrace(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	for _, c := range []struct{ trace, prof uint64 }{{10_000, 10_001}, {10_000, 0}, {1 << 40, 1<<40 + 1}} {
		if _, _, err := profile.CaptureContext(context.Background(), p, c.trace, profile.Options{MaxInsts: c.prof}); err == nil {
			t.Errorf("trace budget %d, profile budget %d: accepted", c.trace, c.prof)
		}
	}
}
