package dyntrace

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// loopProgram stores in a loop so the trace has branches and memory refs.
func loopProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("loop")
	base := b.Zeros("buf", 64)
	b.Label("e")
	b.Li(isa.IntReg(1), int64(base))
	b.Li(isa.IntReg(2), 5)
	b.Label("loop")
	b.St(isa.IntReg(2), isa.IntReg(1), 8)
	b.Ld(isa.IntReg(3), isa.IntReg(1), 8)
	b.Addi(isa.IntReg(2), isa.IntReg(2), -1)
	b.Bne(isa.IntReg(2), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

// TestCaptureMatchesObserver: the trace's columns must agree event-for-
// event with the funcsim observer stream it was derived from.
func TestCaptureMatchesObserver(t *testing.T) {
	p := loopProgram(t)
	tr, err := Capture(p, 0)
	if err != nil {
		t.Fatal(err)
	}

	cols := walkAll(t, tr, 0)
	var i, mi uint64
	obs := func(ev *funcsim.Event) error {
		st := tr.Statics()[cols.sids[i]]
		if int(st.Block) != ev.Block || int(st.Index) != ev.Index {
			t.Fatalf("inst %d: static (%d,%d) want (%d,%d)", i, st.Block, st.Index, ev.Block, ev.Index)
		}
		if st.PC != ev.PC {
			t.Fatalf("inst %d: PC %d want %d", i, st.PC, ev.PC)
		}
		if st.Op != ev.Inst.Op {
			t.Fatalf("inst %d: op %v want %v", i, st.Op, ev.Inst.Op)
		}
		if cols.taken[i] != ev.Taken {
			t.Fatalf("inst %d: taken %v want %v", i, cols.taken[i], ev.Taken)
		}
		if st.Mem {
			if got := cols.addrs[mi]; got != ev.Addr {
				t.Fatalf("memref %d: addr %d want %d", mi, got, ev.Addr)
			}
			if cols.stores[mi] != ev.Inst.Op.IsStore() {
				t.Fatalf("memref %d: store bit %v", mi, cols.stores[mi])
			}
			mi++
		}
		i++
		return nil
	}
	res, err := funcsim.RunProgram(p, funcsim.Limits{}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Insts() != res.Insts || i != res.Insts {
		t.Fatalf("trace has %d insts, execution retired %d", tr.Insts(), res.Insts)
	}
	if tr.NumMem() != mi {
		t.Fatalf("trace has %d memrefs, execution had %d", tr.NumMem(), mi)
	}
	if !tr.Halted() {
		t.Fatal("trace should record halt")
	}
}

// TestCaptureRespectsLimit: the capture budget truncates the stream
// exactly like funcsim.Limits.
func TestCaptureRespectsLimit(t *testing.T) {
	p := loopProgram(t)
	tr, err := Capture(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Insts() != 7 {
		t.Fatalf("insts %d want 7", tr.Insts())
	}
	if tr.Halted() {
		t.Fatal("limited capture must not report halt")
	}
}

// TestMemPrefix: Mem(n) must return exactly the references issued by the
// first n instructions.
func TestMemPrefix(t *testing.T) {
	p := loopProgram(t)
	tr, err := Capture(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	sids := walkAll(t, tr, 0).sids
	for n := uint64(0); n <= tr.Insts(); n++ {
		want := uint64(0)
		for i := uint64(0); i < n; i++ {
			if tr.Statics()[sids[i]].Mem {
				want++
			}
		}
		maxInsts := n
		if n == tr.Insts() {
			maxInsts = 0 // whole-trace spelling
		}
		addrs, _ := tr.Mem(maxInsts)
		if maxInsts == 0 {
			want = tr.NumMem()
		}
		if uint64(len(addrs)) != want {
			t.Fatalf("Mem(%d): %d refs want %d", maxInsts, len(addrs), want)
		}
	}
}

// TestCaptureWorkload: capture works on a real workload and its saved
// image, which is also its in-memory form, stays compact. The bundled
// workloads encode at 1.5–2 B/inst; 4 B/inst is what a raw uint32
// static-id column alone would cost, so anything above it means the
// encoding regressed.
func TestCaptureWorkload(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(w.Build(), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Insts() == 0 {
		t.Fatal("empty trace")
	}
	var img bytes.Buffer
	if err := tr.Save(&img); err != nil {
		t.Fatal(err)
	}
	if perInst := float64(img.Len()) / float64(tr.Insts()); perInst > 4 {
		t.Fatalf("saved trace is %.2f B/inst, want at most 4", perInst)
	}
}

// TestDecodeCacheSingleFlight hammers DecodeCache from many goroutines
// released by a single barrier: the build must run exactly once, and
// every caller must receive the identical pointer. The old
// check-then-store implementation let two concurrent callers both run
// build, with the loser's pointer differing from the winner's; run
// under -race this also proves the single-flight path publishes the
// product safely.
func TestDecodeCacheSingleFlight(t *testing.T) {
	tr, err := Capture(loopProgram(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	var builds atomic.Int32
	results := make([]any, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g] = tr.DecodeCache(func() any {
				builds.Add(1)
				return &struct{ n int }{n: g}
			})
		}(g)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d received a different product than goroutine 0", g)
		}
	}
	// Later callers keep getting the winner, never a fresh build.
	if v := tr.DecodeCache(func() any {
		builds.Add(1)
		return &struct{ n int }{n: -1}
	}); v != results[0] {
		t.Error("post-race caller received a different product")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("build re-ran after the cache was populated (%d total)", n)
	}
}

// columns is a trace's dynamic stream as a Walk yields it, flattened to
// one entry per instruction or reference.
type columns struct {
	sids   []uint32
	taken  []bool
	addrs  []uint64
	stores []bool
}

// walkAll walks the first n instructions of tr (0 = all of them) and
// flattens the chunks, failing the test on a walk error.
func walkAll(t testing.TB, tr *Trace, n uint64) columns {
	t.Helper()
	var out columns
	for w := tr.Walk(n); !w.Done(); {
		c, err := w.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out.sids = append(out.sids, c.SIDs...)
		for k := range c.SIDs {
			out.taken = append(out.taken, c.Taken[k>>6]>>(k&63)&1 == 1)
		}
		out.addrs = append(out.addrs, c.Addrs...)
		for j := range c.Addrs {
			out.stores = append(out.stores, c.Stores[j>>6]>>(j&63)&1 == 1)
		}
	}
	return out
}
