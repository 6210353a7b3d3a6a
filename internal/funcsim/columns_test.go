package funcsim_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// batchSum condenses one delivered batch: its instruction and reference
// counts and an FNV-1a digest of its contents. Comparing the sequences
// of sums compares both streams exactly, batch boundaries included,
// without holding a multi-million-instruction run in memory.
type batchSum struct {
	insts, refs int
	digest      uint64
}

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

func bit(words []uint64, i int) uint64 { return words[i>>6] >> (i & 63) & 1 }

func sumColumns(c *funcsim.Columns) batchSum {
	if len(c.Taken) != (len(c.SIDs)+63)/64 || len(c.Stores) != (len(c.Addrs)+63)/64 {
		// An ill-sized bitset is a difference of its own.
		return batchSum{insts: -1}
	}
	h := uint64(fnvOffset)
	for k, sid := range c.SIDs {
		h = mix(h, uint64(sid)<<1|bit(c.Taken, k))
	}
	for j, a := range c.Addrs {
		h = mix(mix(h, a), bit(c.Stores, j))
	}
	return batchSum{len(c.SIDs), len(c.Addrs), h}
}

// eventColumns converts a batch of reference Events to columns: the id
// from Block and Index by BlockStarts, and an address and store bit for
// each memory instruction.
func eventColumns(p *prog.Program, events []funcsim.Event) *funcsim.Columns {
	starts := p.BlockStarts()
	c := &funcsim.Columns{Taken: make([]uint64, (len(events)+63)/64)}
	var stores []bool
	for k := range events {
		ev := &events[k]
		c.SIDs = append(c.SIDs, starts[ev.Block]+uint32(ev.Index))
		if ev.Taken {
			c.Taken[k>>6] |= 1 << (k & 63)
		}
		if ev.Inst.Op.IsMem() {
			c.Addrs = append(c.Addrs, ev.Addr)
			stores = append(stores, ev.Inst.Op.IsStore())
		}
	}
	c.Stores = make([]uint64, (len(stores)+63)/64)
	for j, st := range stores {
		if st {
			c.Stores[j>>6] |= 1 << (j & 63)
		}
	}
	return c
}

// sumEvents digests every field of a batch of Events; Inst is checked to
// point at the static instruction Block and Index name.
func sumEvents(p *prog.Program, events []funcsim.Event) batchSum {
	h := uint64(fnvOffset)
	for i := range events {
		ev := &events[i]
		h = mix(h, ev.Seq)
		h = mix(h, uint64(ev.Block)<<32|uint64(uint32(ev.Index)))
		h = mix(h, ev.PC)
		h = mix(h, ev.Addr)
		h = mix(h, uint64(int64(ev.NextBlock))<<1)
		if ev.Taken {
			h = mix(h, 1)
		}
		if ev.Inst != &p.Blocks[ev.Block].Insts[ev.Index] {
			h = mix(h, 2)
		}
	}
	return batchSum{insts: len(events), digest: h}
}

// run is one execution's observable outcome.
type run struct {
	res     funcsim.Result
	err     string
	batches []batchSum
	ireg    [isa.NumIntRegs]int64
	freg    [isa.NumFPRegs]uint64
	mem     []byte
}

func finish(t testing.TB, p *prog.Program, m *funcsim.Machine, r *run, res funcsim.Result, err error) {
	t.Helper()
	r.res = res
	if err != nil {
		r.err = err.Error()
	}
	for i := range r.ireg {
		r.ireg[i] = m.IntReg(i)
	}
	for i := range r.freg {
		r.freg[i] = math.Float64bits(m.FPReg(i))
	}
	mem, merr := m.ReadMem(0, int(p.MemSize))
	if merr != nil {
		t.Fatal(merr)
	}
	r.mem = mem
}

// machineFunc builds a fresh machine for one run, and the program it
// runs.
type machineFunc func(t testing.TB) (*prog.Program, *funcsim.Machine)

// runThreeWays runs a fresh machine three times — the per-event
// reference, the column interpreter and the Event adapter over it — and
// returns each run's outcome, reducing every batch to the form the
// column run's is compared in.
func runThreeWays(t testing.TB, machine machineFunc, budget uint64) (ref, cols, events run, refEvents []batchSum) {
	t.Helper()
	lim := funcsim.Limits{MaxInsts: budget}

	p, m := machine(t)
	res, err := m.RunReference(lim, func(evs []funcsim.Event) error {
		ref.batches = append(ref.batches, sumColumns(eventColumns(p, evs)))
		refEvents = append(refEvents, sumEvents(p, evs))
		return nil
	})
	finish(t, p, m, &ref, res, err)

	p, m = machine(t)
	res, err = m.RunColumns(lim, func(c *funcsim.Columns) error {
		cols.batches = append(cols.batches, sumColumns(c))
		return nil
	})
	finish(t, p, m, &cols, res, err)

	p, m = machine(t)
	res, err = m.RunBatch(lim, func(evs []funcsim.Event) error {
		events.batches = append(events.batches, sumEvents(p, evs))
		return nil
	})
	finish(t, p, m, &events, res, err)
	return ref, cols, events, refEvents
}

// checkThreeWays runs machine's program three ways at budget and
// fails unless the column run and the adapter reproduce the reference:
// the delivered stream (ids, taken bits, addresses, store bits, and for
// the adapter every Event field), the batch boundaries, the Result, the
// error, and the final registers and memory.
func checkThreeWays(t testing.TB, name string, machine machineFunc, budget uint64) {
	t.Helper()
	ref, cols, events, refEvents := runThreeWays(t, machine, budget)
	for _, c := range []struct {
		form string
		got  run
		want []batchSum
	}{{"columns", cols, ref.batches}, {"events", events, refEvents}} {
		if !slices.Equal(c.got.batches, c.want) {
			first := 0
			for first < len(c.want) && first < len(c.got.batches) && c.got.batches[first] == c.want[first] {
				first++
			}
			t.Fatalf("%s budget %d: %s stream differs from the reference from batch %d (%d vs %d batches)",
				name, budget, c.form, first, len(c.got.batches), len(c.want))
		}
		if c.got.res != ref.res || c.got.err != ref.err {
			t.Fatalf("%s budget %d: %s run ended %+v %q, reference %+v %q",
				name, budget, c.form, c.got.res, c.got.err, ref.res, ref.err)
		}
		if c.got.ireg != ref.ireg || c.got.freg != ref.freg || !bytes.Equal(c.got.mem, ref.mem) {
			t.Fatalf("%s budget %d: %s run left different registers or memory", name, budget, c.form)
		}
	}
}

// budgets covers a run to halt (0), a single instruction, both sides of
// the 64-bit bitset word and of the 4096-instruction batch, and the
// default profiling budget.
var budgets = []uint64{0, 1, 63, 64, 4095, 4096, 4097, 1_000_000}

// newMachine returns a machine for p.
func newMachine(t testing.TB, p *prog.Program) (*prog.Program, *funcsim.Machine) {
	t.Helper()
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// fresh builds the program anew for every run.
func fresh(build func() *prog.Program) machineFunc {
	return func(t testing.TB) (*prog.Program, *funcsim.Machine) { return newMachine(t, build()) }
}

// cloneOf returns the default clone of w's 1M-instruction profile.
func cloneOf(t testing.TB, w workloads.Workload) *prog.Program {
	t.Helper()
	prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: profile.DefaultMaxInsts})
	if err != nil {
		t.Fatal(err)
	}
	clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return clone.Program
}

// midBatchFault loops through three full batches and then loads from
// outside memory at dynamic instruction 3·5000+3 = 15003, in the middle
// of the fourth batch.
func midBatchFault() *prog.Program {
	b := prog.NewBuilder("fault")
	buf := b.Zeros("buf", 64)
	b.Label("e")
	b.Li(isa.IntReg(1), int64(buf))
	b.Li(isa.IntReg(2), 5000)
	b.Label("loop")
	b.St(isa.IntReg(2), isa.IntReg(1), 8)
	b.Addi(isa.IntReg(2), isa.IntReg(2), -1)
	b.Bne(isa.IntReg(2), isa.RZero, "loop")
	b.Label("bad")
	b.Li(isa.IntReg(3), 1<<40)
	b.Ld(isa.IntReg(4), isa.IntReg(3), 0)
	b.Halt()
	return b.MustBuild()
}

// fallsOff returns a machine for a program whose last block, after
// validation, ends in an add instead of its halt: it runs a short loop
// and then falls off the end.
func fallsOff(t testing.TB) (*prog.Program, *funcsim.Machine) {
	b := prog.NewBuilder("falloff")
	b.Label("e")
	b.Li(isa.IntReg(1), 3000)
	b.Label("loop")
	b.Addi(isa.IntReg(1), isa.IntReg(1), -1)
	b.Bne(isa.IntReg(1), isa.RZero, "loop")
	b.Label("end")
	b.Addi(isa.IntReg(2), isa.IntReg(2), 1)
	b.Halt()
	p, m := newMachine(t, b.MustBuild()) // validates the program as built
	last := &p.Blocks[len(p.Blocks)-1]
	last.Insts[len(last.Insts)-1] = isa.Inst{Op: isa.OpAdd, Rd: isa.IntReg(5), Rs1: isa.IntReg(2), Rs2: isa.IntReg(2)}
	return p, m
}

// TestColumnsMatchReference runs every bundled workload, its default
// clone and the large input variants, plus a mid-batch memory fault and
// a program that falls off its last block, at each budget three ways:
// the per-event reference loop, the column interpreter, and the Event
// adapter over it. Both must reproduce the reference exactly.
func TestColumnsMatchReference(t *testing.T) {
	type program struct {
		name    string
		machine machineFunc
	}
	progs := []program{
		{"fault", fresh(midBatchFault)},
		{"falloff", fallsOff},
	}
	for _, w := range workloads.All() {
		w := w
		progs = append(progs, program{w.Name, fresh(w.Build)})
		var once sync.Once
		var clone *prog.Program
		progs = append(progs, program{w.Name + "-clone", func(t testing.TB) (*prog.Program, *funcsim.Machine) {
			// One generated clone serves every run: runs only read the
			// program, and each gets its own machine.
			once.Do(func() { clone = cloneOf(t, w) })
			return newMachine(t, clone)
		}})
	}
	for _, w := range workloads.Large() {
		progs = append(progs, program{w.Name, fresh(w.Build)})
	}
	for _, pg := range progs {
		pg := pg
		t.Run(pg.name, func(t *testing.T) {
			t.Parallel()
			for _, budget := range budgets {
				checkThreeWays(t, pg.name, pg.machine, budget)
			}
		})
	}
}

// TestColumnsErrorCases pins what the column run delivers on the two
// execution errors, so TestColumnsMatchReference's comparison is known
// to cover them: the faulting load's batch holds exactly the
// instructions retired before it, and a run off the last block reports
// the block it fell to.
func TestColumnsErrorCases(t *testing.T) {
	_, cols, _, _ := runThreeWays(t, fresh(midBatchFault), 0)
	var delivered int
	for _, b := range cols.batches {
		delivered += b.insts
	}
	if cols.err == "" || cols.res.Insts != 15003 || delivered != 15003 || len(cols.batches) != 4 {
		t.Fatalf("fault: %d instructions in %d batches, result %+v, error %q; want 15003 in 4 and an error",
			delivered, len(cols.batches), cols.res, cols.err)
	}
	_, cols, _, _ = runThreeWays(t, fallsOff, 0)
	if want := "funcsim: falloff fell off program at block 3"; cols.err != want || cols.res.Halted {
		t.Fatalf("falloff: result %+v, error %q; want %q", cols.res, cols.err, want)
	}
}

// FuzzColumns fuzzes the workload, the synthesis seed of its clone and
// the budget: the real program and the clone, run as columns and through
// the Event adapter, must reproduce the per-event reference.
func FuzzColumns(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint32(4097))
	f.Add(uint8(7), uint64(42), uint32(0))
	f.Add(uint8(22), uint64(3), uint32(65_536))
	all := workloads.All()
	profs := make([]*profile.Profile, len(all))
	f.Fuzz(func(t *testing.T, wl uint8, seed uint64, budget uint32) {
		i := int(wl) % len(all)
		w := all[i]
		if profs[i] == nil {
			prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 200_000})
			if err != nil {
				t.Fatal(err)
			}
			profs[i] = prof
		}
		// A short synthesized loop keeps each input fast, also when the
		// budget is 0 and the clone runs to halt.
		clone, err := synth.GenerateContext(context.Background(), profs[i], synth.Config{Seed: seed, Iterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(budget % 300_000)
		checkThreeWays(t, w.Name+"-clone", func(t testing.TB) (*prog.Program, *funcsim.Machine) {
			return newMachine(t, clone.Program)
		}, n)
		if n == 0 {
			n = 1 // the real program: no run to halt
		}
		checkThreeWays(t, w.Name, fresh(w.Build), n)
	})
}

// blockEnds returns the dynamic instruction counts at which the first n
// blocks of p's run end, from a reference run.
func blockEnds(t *testing.T, p *prog.Program, n int) []uint64 {
	t.Helper()
	_, m := newMachine(t, p)
	var ends []uint64
	_, err := m.RunReference(funcsim.Limits{MaxInsts: 1 << 20}, func(evs []funcsim.Event) error {
		for i := range evs {
			ev := &evs[i]
			if len(ends) < n && ev.Index == len(p.Blocks[ev.Block].Insts)-1 {
				ends = append(ends, ev.Seq+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) < n {
		t.Fatalf("%s: only %d blocks ended", p.Name, len(ends))
	}
	return ends
}

// faultAt returns a program that retires exactly f instructions and
// then loads from outside memory: a loop of three instructions, padded
// by up to two additions so the fault lands on f. f must be at least 3.
func faultAt(f int) *prog.Program {
	b := prog.NewBuilder("fault")
	buf := b.Zeros("buf", 64)
	b.Label("e")
	b.Li(isa.IntReg(1), int64(buf))
	b.Li(isa.IntReg(2), int64((f-3)/3))
	for range (f - 3) % 3 {
		b.Addi(isa.IntReg(5), isa.IntReg(5), 1)
	}
	b.Label("loop")
	b.St(isa.IntReg(2), isa.IntReg(1), 8)
	b.Addi(isa.IntReg(2), isa.IntReg(2), -1)
	b.Bne(isa.IntReg(2), isa.RZero, "loop")
	b.Label("bad")
	b.Li(isa.IntReg(3), 1<<40)
	b.Ld(isa.IntReg(4), isa.IntReg(3), 0)
	b.Halt()
	return b.MustBuild()
}

// TestColumnsEdgeSweep runs the column interpreter against the
// reference at every budget within 3 of the edges where it cuts a block
// into segments: the ends of the first blocks, and the first and second
// batch boundaries. It also runs a load fault placed as the last
// instruction of a batch and as the first of the next.
func TestColumnsEdgeSweep(t *testing.T) {
	var progs []*prog.Program
	for _, name := range []string{"crc32", "qsort", "fft"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w.Build())
	}
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, cloneOf(t, w))
	for _, p := range progs {
		edges := append(blockEnds(t, p, 4), funcsim.EventChunk, 2*funcsim.EventChunk)
		for _, e := range edges {
			for d := -3; d <= 3; d++ {
				if budget := int64(e) + int64(d); budget > 0 {
					checkThreeWays(t, p.Name, func(t testing.TB) (*prog.Program, *funcsim.Machine) {
						return newMachine(t, p)
					}, uint64(budget))
				}
			}
		}
	}
	for _, f := range []int{funcsim.EventChunk - 1, funcsim.EventChunk} {
		_, cols, _, _ := runThreeWays(t, fresh(func() *prog.Program { return faultAt(f) }), 0)
		if cols.err == "" || cols.res.Insts != uint64(f) {
			t.Fatalf("fault at %d: result %+v, error %q; want %d instructions and an error", f, cols.res, cols.err, f)
		}
		checkThreeWays(t, fmt.Sprintf("fault at %d", f), fresh(func() *prog.Program { return faultAt(f) }), 0)
	}
}
