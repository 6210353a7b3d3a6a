package dyntrace

import (
	"bytes"
	"context"
	"slices"
	"sync"
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
// event with the funcsim Event stream of the same program.
func TestCaptureMatchesObserver(t *testing.T) {
	p := loopProgram(t)
	tr, err := CaptureContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}

	cols := walkAll(t, tr, 0)
	var i, mi uint64
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunBatch(funcsim.Limits{}, func(evs []funcsim.Event) error {
		for k := range evs {
			ev := &evs[k]
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
		}
		return nil
	})
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
	tr, err := CaptureContext(context.Background(), p, 7)
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
	tr, err := CaptureContext(context.Background(), p, 0)
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
// workloads encode at 0.17–0.89 B/inst (crc32 at 0.64), with no
// per-instruction column but the taken bit, so anything above 1 B/inst
// means the encoding regressed.
func TestCaptureWorkload(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureContext(context.Background(), w.Build(), 100_000)
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
	if perInst := float64(img.Len()) / float64(tr.Insts()); perInst > 1 {
		t.Fatalf("saved trace is %.2f B/inst, want at most 1", perInst)
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

// TestConcurrentStreamsShareProgram runs two captures of one freshly
// built program at once. Both build the program's static numbering
// (prog.Program.BlockStarts) on first use, which must be race-free under
// -race, and both must record the same trace.
func TestConcurrentStreamsShareProgram(t *testing.T) {
	w, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	var traces [2]*Trace
	var errs [2]error
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[i], errs[i] = CaptureContext(context.Background(), p, 50_000)
		}()
	}
	wg.Wait()
	var saved [2][]byte
	for i, tr := range traces {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved[i] = buf.Bytes()
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatal("concurrent captures of one program differ")
	}
}

// TestAppendBitsMatchesBitwise: the word-at-a-time bitset append that
// capture uses builds the same words as appending one bit at a time,
// at every alignment of the existing bits, for runs shorter than, equal
// to and longer than a word, with garbage in src past the run.
func TestAppendBitsMatchesBitwise(t *testing.T) {
	src := []uint64{0x8000_0000_0000_0001, 0xdead_beef_0123_4567, ^uint64(0), 0x0f0f_0f0f_0f0f_0f0f}
	bit := func(bits []uint64, i uint64) bool { return bits[i>>6]>>(i&63)&1 != 0 }
	for n := uint64(0); n <= 130; n++ {
		for _, k := range []uint64{0, 1, 5, 63, 64, 65, 127, 128, 200, 256} {
			var want []uint64
			for i := uint64(0); i < n+k; i++ {
				if i&63 == 0 {
					want = append(want, 0)
				}
				if (i < n && i%3 == 0) || (i >= n && bit(src, i-n)) {
					want[i>>6] |= 1 << (i & 63)
				}
			}
			var got []uint64
			for i := uint64(0); i < n; i++ {
				if i&63 == 0 {
					got = append(got, 0)
				}
				if i%3 == 0 {
					got[i>>6] |= 1 << (i & 63)
				}
			}
			got = appendBits(got, n, src, k)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: got %x want %x", n, k, got, want)
			}
		}
	}
}
