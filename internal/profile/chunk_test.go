package profile

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/workloads"
)

// bitsFrom returns bits [off, off+n) of src re-based to bit 0.
func bitsFrom(src []uint64, off, n int) []uint64 {
	out := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		j := off + i
		if src[j>>6]>>(j&63)&1 != 0 {
			out[i>>6] |= 1 << (i & 63)
		}
	}
	return out
}

// collectResliced profiles the first n instructions of tr through the
// collector, handing it each walk chunk cut into pieces whose lengths
// size draws. The pieces start anywhere, not only at multiples of 64.
func collectResliced(t testing.TB, tr *dyntrace.Trace, opts Options, size func() int) *Profile {
	t.Helper()
	st := tr.Statics()
	c := newCollector(tr.Program(), st, opts)
	w := tr.Walk(opts.MaxInsts)
	for !w.Done() {
		ch, err := w.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		mi := 0
		for off := 0; off < len(ch.SIDs); {
			k := min(size(), len(ch.SIDs)-off)
			sids := ch.SIDs[off : off+k]
			nmem := 0
			for _, sid := range sids {
				if st[sid].Mem {
					nmem++
				}
			}
			c.add(&dyntrace.Chunk{
				Base:   ch.Base + uint64(off),
				SIDs:   sids,
				Taken:  bitsFrom(ch.Taken, off, k),
				Addrs:  ch.Addrs[mi : mi+nmem],
				Stores: bitsFrom(ch.Stores, mi, nmem),
			})
			off += k
			mi += nmem
		}
	}
	return c.finish()
}

func saveBytes(t testing.TB, pr *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileFromTraceChunkInvariant: how the stream is cut into chunks
// is not part of a chunk's contract, so re-slicing a trace walk's chunks
// into 1-, 7-, 64- and 4096-instruction pieces must leave the profile's
// bytes what CollectContext's execution chunks give.
func TestProfileFromTraceChunkInvariant(t *testing.T) {
	const budget = 150_000
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), budget)
			if err != nil {
				t.Fatal(err)
			}
			for _, perBlock := range []bool{false, true} {
				opts := Options{MaxInsts: budget, PerBlockNodes: perBlock}
				whole, err := CollectContext(context.Background(), tr.Program(), opts)
				if err != nil {
					t.Fatal(err)
				}
				want := saveBytes(t, whole)
				for _, size := range []int{1, 7, 64, 4096} {
					got := collectResliced(t, tr, opts, func() int { return size })
					if !bytes.Equal(saveBytes(t, got), want) {
						t.Errorf("perBlock %v: %d-instruction pieces change the profile", perBlock, size)
					}
				}
			}
		})
	}
}

// FuzzProfileChunking fuzzes the workload, the budget and the chunk
// split: a walk cut into pieces of random lengths must profile to the
// per-event reference's bytes.
func FuzzProfileChunking(f *testing.F) {
	f.Add(uint8(0), uint32(777), int64(1), false)
	f.Add(uint8(4), uint32(65_537), int64(7), true)
	f.Add(uint8(22), uint32(0), int64(64), false)
	all := workloads.All()
	f.Fuzz(func(t *testing.T, wl uint8, budget uint32, seed int64, perBlock bool) {
		p := all[int(wl)%len(all)].Build()
		opts := Options{MaxInsts: uint64(budget % 200_000), PerBlockNodes: perBlock}
		if opts.MaxInsts == 0 {
			opts.MaxInsts = 1 // keep each input fast: no run to halt
		}
		ref, err := collectReference(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := dyntrace.CaptureContext(context.Background(), p, opts.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		got := collectResliced(t, tr, opts, func() int { return 1 + rng.Intn([]int{8, 100, 5000}[rng.Intn(3)]) })
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, ref)) {
			t.Fatalf("%s budget %d seed %d perBlock %v: re-sliced walk differs from the reference",
				p.Name, opts.MaxInsts, seed, perBlock)
		}
	})
}
