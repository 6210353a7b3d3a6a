package dyntrace_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// flat is a dynamic stream flattened from its chunks: one id per
// instruction, the taken words, one address and one store bit per
// reference.
type flat struct {
	sids   []uint32
	taken  []uint64
	addrs  []uint64
	stores []bool
}

// add appends one chunk. Chunk bases are 64-aligned, so the chunks'
// taken words concatenate to the stream's.
func (f *flat) add(c *dyntrace.Chunk) {
	f.sids = append(f.sids, c.SIDs...)
	f.taken = append(f.taken, c.Taken...)
	f.addrs = append(f.addrs, c.Addrs...)
	for j := range c.Addrs {
		f.stores = append(f.stores, c.Stores[j>>6]>>(j&63)&1 == 1)
	}
}

func (f *flat) equal(g *flat) error {
	switch {
	case !slices.Equal(f.sids, g.sids):
		return fmt.Errorf("ids differ (%d and %d)", len(f.sids), len(g.sids))
	case !slices.Equal(f.taken, g.taken):
		return fmt.Errorf("taken words differ (%d and %d)", len(f.taken), len(g.taken))
	case !slices.Equal(f.addrs, g.addrs):
		return fmt.Errorf("addresses differ (%d and %d)", len(f.addrs), len(g.addrs))
	case !slices.Equal(f.stores, g.stores):
		return fmt.Errorf("store bits differ")
	}
	return nil
}

// walked flattens a whole Walk of tr.
func walked(tr *dyntrace.Trace) (*flat, error) {
	var f flat
	for w := tr.Walk(0); !w.Done(); {
		c, err := w.Next(context.Background())
		if err != nil {
			return nil, err
		}
		f.add(c)
	}
	return &f, nil
}

// TestTraceIsLossless: a trace stores no static ids, yet for every
// workload, real and default clone, at a budget that cuts a block, one
// that crosses a ChunkLen edge and 1M, a Walk over the captured trace
// and over its Save→LoadBytes round trip yields exactly the ids, taken
// words, addresses and store bits that dyntrace.Stream hands out for
// the same run.
func TestTraceIsLossless(t *testing.T) {
	budgets := []uint64{1_001, dyntrace.ChunkLen + 3, 1 << 20}
	midBlock := 0
	for _, w := range workloads.All() {
		real := w.Build()
		for _, p := range []*prog.Program{real, defaultClone(t, real)} {
			for _, n := range budgets {
				var want flat
				var static []dyntrace.Static
				if _, err := dyntrace.Stream(context.Background(), p, n, func(s []dyntrace.Static) func(*dyntrace.Chunk) error {
					static = s
					return func(c *dyntrace.Chunk) error {
						want.add(c)
						return nil
					}
				}); err != nil {
					t.Fatal(err)
				}
				if last := static[want.sids[len(want.sids)-1]]; int(last.Index) != len(p.Blocks[last.Block].Insts)-1 {
					midBlock++
				}
				tr, err := dyntrace.CaptureContext(context.Background(), p, n)
				if err != nil {
					t.Fatal(err)
				}
				var img bytes.Buffer
				if err := tr.Save(&img); err != nil {
					t.Fatal(err)
				}
				loaded, err := dyntrace.LoadBytes(img.Bytes(), nil, p)
				if err != nil {
					t.Fatalf("%s/%d: %v", p.Name, n, err)
				}
				for name, tr := range map[string]*dyntrace.Trace{"captured": tr, "loaded": loaded} {
					got, err := walked(tr)
					if err == nil {
						err = got.equal(&want)
					}
					if err != nil {
						t.Errorf("%s/%d: %s trace: %v", p.Name, n, name, err)
					}
				}
			}
		}
	}
	if midBlock == 0 {
		t.Error("no run ended inside a block")
	}
	t.Logf("%d runs ended inside a block", midBlock)
}
