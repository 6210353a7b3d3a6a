package uarch_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/isa"
	"perfclone/internal/power"
	"perfclone/internal/prog"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// checkInvariants fails t for every conservation law st breaks.
// Issued == Committed (and Dispatched ≥ Committed) hold only for a run
// with no warmup: the instructions in flight at the warmup reset commit
// inside the measured window but were fetched and issued before it.
func checkInvariants(t *testing.T, label string, st uarch.Stats, warm bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if st.Committed != st.Insts {
		fail("committed %d != insts %d", st.Committed, st.Insts)
	}
	var classes uint64
	for _, n := range st.Classes {
		classes += n
	}
	if classes != st.Insts {
		fail("class histogram sums to %d, insts %d", classes, st.Insts)
	}
	if st.Cycles*uint64(st.Config.Width) < st.Insts {
		fail("%d cycles at width %d cannot commit %d insts", st.Cycles, st.Config.Width, st.Insts)
	}
	if st.BranchMispredict > st.BranchLookups {
		fail("%d mispredicts of %d branch lookups", st.BranchMispredict, st.BranchLookups)
	}
	for _, c := range []struct {
		name string
		s    cache.Stats
	}{{"L1I", st.L1I}, {"L1D", st.L1D}, {"L2", st.L2}} {
		if c.s.Misses > c.s.Accesses {
			fail("%s: %d misses of %d accesses", c.name, c.s.Misses, c.s.Accesses)
		}
	}
	if !warm {
		if st.Issued != st.Committed {
			fail("issued %d != committed %d: every committed inst issues exactly once", st.Issued, st.Committed)
		}
		if st.Dispatched < st.Committed {
			fail("dispatched %d < committed %d", st.Dispatched, st.Committed)
		}
	}
	b := reflect.ValueOf(power.Estimate(st))
	for i := range b.NumField() {
		if v := b.Field(i).Float(); !(v >= 0) {
			fail("power term %s = %v", b.Type().Field(i).Name, v)
		}
	}
}

// TestStatsAccounting checks the conservation laws on every workload,
// real and clone, on the base configuration and each Table 3 design
// change, with and without a warmup, at a 100k-instruction budget.
func TestStatsAccounting(t *testing.T) {
	const budget = 100_000
	cfgs := []uarch.Config{uarch.BaseConfig()}
	for _, dc := range uarch.DesignChanges() {
		cfgs = append(cfgs, dc.Apply(uarch.BaseConfig()))
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			ps := realAndClone(t, w)
			for _, p := range []struct {
				kind string
				prog *prog.Program
			}{{"real", ps[0]}, {"clone", ps[1]}} {
				tr, err := dyntrace.CaptureContext(context.Background(), p.prog, budget)
				if err != nil {
					t.Fatal(err)
				}
				for _, warmup := range []uint64{0, uarch.DefaultWarmup(budget)} {
					lim := uarch.Limits{MaxInsts: budget, Warmup: warmup}
					res, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
					if err != nil {
						t.Fatal(err)
					}
					for i, st := range res {
						if st.Insts == 0 {
							t.Errorf("%s/%s warmup %d: nothing measured", p.kind, cfgs[i].Name, warmup)
						}
						checkInvariants(t, fmt.Sprintf("%s/%s warmup %d", p.kind, cfgs[i].Name, warmup), st, warmup > 0)
					}
				}
			}
		})
	}
}

// fuzzConfig decodes one byte per Config field; an exhausted input reads
// as zeros. The ranges cover every value Validate rejects (zero widths,
// queues, units and latencies; cache geometries that do not divide) and
// fields it never checks (a negative mispredict penalty, an unknown
// predictor). Cache arrays stop at 64 KB and queues at 255 entries so one
// execution stays near a millisecond.
func fuzzConfig(b []byte) uarch.Config {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return int(v)
	}
	geom := func(name string) cache.Config {
		c := cache.Config{Name: name, Size: 1 << (next() % 17), LineSize: 1 << (next() % 8)}
		if k := next() % 10; k > 0 {
			c.Assoc = 1 << (k - 1)
		}
		return c
	}
	predictors := []uarch.PredictorSpec{"gap", "not-taken", "taken", "bimodal", "gshare", "unknown"}
	return uarch.Config{
		Name:              "fuzz",
		Width:             next() % 17,
		ROBSize:           next(),
		LSQSize:           next(),
		InOrder:           next()&1 == 1,
		IntALUs:           next() % 5,
		IntMulDiv:         next() % 5,
		FPALUs:            next() % 5,
		FPMulDiv:          next() % 5,
		MemPorts:          next() % 5,
		Predictor:         predictors[next()%len(predictors)],
		MispredictPenalty: int(int8(next())),
		NextLinePrefetch:  next()&1 == 1,
		L1I:               geom("L1I"),
		L1D:               geom("L1D"),
		L2:                geom("L2"),
		L1Lat:             next() % 16,
		L2Lat:             next() % 64,
		MemLat:            next(),
	}
}

// fuzzTrace decodes a trace of one of the programs of empties, empty
// traces held for their programs. The first byte picks the program and
// the next two the warmup and instruction budget (0 = the whole trace).
// The trace then follows the program's control flow from its entry, as
// a capture does: each conditional branch takes its direction from the
// low bit of the next byte, and each memory instruction its address
// from the next two, 8-byte granular in a 512 KB window. It ends at a
// halt, where the bytes run out, or at 2048 instructions, so every
// input is a trace a run of the program could leave.
func fuzzTrace(empties []*dyntrace.Trace, b []byte) (*dyntrace.Trace, uarch.Limits) {
	if len(b) < 3 {
		return nil, uarch.Limits{}
	}
	p := empties[int(b[0])%len(empties)].Program()
	lim := uarch.Limits{Warmup: uint64(b[1]), MaxInsts: uint64(b[2])}
	b = b[3:]
	var taken, addrs, stores []uint64
	n, halted := 0, false
	for bi := p.Entry; n < 2048 && !halted; {
		next := bi + 1
		for _, in := range p.Blocks[bi].Insts {
			dir := false
			switch {
			case in.Op.IsBranch():
				if len(b) < 1 {
					return dyntrace.FromColumns(p, taken, addrs, stores, uint64(n), false), lim
				}
				if dir = b[0]&1 != 0; dir {
					next = in.Target
				}
				b = b[1:]
			case in.Op.IsMem():
				if len(b) < 2 {
					return dyntrace.FromColumns(p, taken, addrs, stores, uint64(n), false), lim
				}
				stores = setBit(stores, len(addrs), in.Op.IsStore())
				addrs = append(addrs, uint64(binary.LittleEndian.Uint16(b))<<3)
				b = b[2:]
			case in.Op == isa.OpJmp:
				next = in.Target
			}
			taken = setBit(taken, n, dir)
			n++
			if halted = in.Op == isa.OpHalt; halted || n == 2048 {
				break
			}
		}
		bi = next
	}
	return dyntrace.FromColumns(p, taken, addrs, stores, uint64(n), halted), lim
}

// setBit appends bit i, which is v, to a bitset that holds bits [0, i).
func setBit(bits []uint64, i int, v bool) []uint64 {
	if i%64 == 0 {
		bits = append(bits, 0)
	}
	if v {
		bits[i/64] |= 1 << (i % 64)
	}
	return bits
}

// fuzzStream decodes an instruction stream over the static table of one
// of the programs of empties, in no program's order, as statistical
// simulation generates one. The first three bytes are fuzzTrace's. Then
// each instruction takes two bytes, its static id (low 15 bits, modulo
// the static table) and branch direction (top bit), and a memory
// instruction two more, its address, 8-byte granular in a 512 KB
// window; up to 2048 instructions.
func fuzzStream(empties []*dyntrace.Trace, b []byte) ([]uarch.TraceInst, uarch.Limits) {
	if len(b) < 3 {
		return nil, uarch.Limits{}
	}
	static := empties[int(b[0])%len(empties)].Statics()
	lim := uarch.Limits{Warmup: uint64(b[1]), MaxInsts: uint64(b[2])}
	b = b[3:]
	var insts []uarch.TraceInst
	for len(b) >= 2 && len(insts) < 2048 {
		v := binary.LittleEndian.Uint16(b)
		b = b[2:]
		st := &static[int(v&0x7fff)%len(static)]
		ti := uarch.TraceInst{
			PC: st.PC, Class: st.Class, Dest: st.Dest, Src1: st.Src1, Src2: st.Src2,
			Taken: v&0x8000 != 0, Branch: st.Branch, Jump: st.Jump,
		}
		if st.Mem && len(b) >= 2 {
			ti.Addr = uint64(binary.LittleEndian.Uint16(b)) << 3
			b = b[2:]
		}
		insts = append(insts, ti)
	}
	return insts, lim
}

// replaySeeds is the seed corpus FuzzReplay and FuzzRunTrace share: the
// base, a wide and an in-order configuration, each with a 600-entry
// stream, and a short stream on the base machine.
func replaySeeds(f *testing.F) [][2][]byte {
	base := []byte{
		1, 16, 8, 0, 2, 1, 1, 1, 1, 0, 3, 0, // Table 2 core, GAp
		14, 5, 2, 14, 5, 2, 16, 6, 3, // 16 KB 2-way L1s, 64 KB 4-way L2
		1, 6, 40,
	}
	wide := []byte{
		4, 64, 32, 0, 4, 2, 2, 2, 2, 4, 7, 1, // gshare, prefetch
		10, 4, 0, 8, 3, 2, 12, 6, 1, // full-assoc L1I, tiny L1D
		2, 9, 200,
	}
	want := uarch.BaseConfig()
	want.Name = "fuzz"
	if got := fuzzConfig(base); !reflect.DeepEqual(got, want) || fuzzConfig(wide).Validate() != nil {
		f.Fatalf("seed configurations decode wrong: base %+v", got)
	}
	inOrder := slices.Clone(base)
	inOrder[3] = 1
	stream := []byte{0, 0, 0}
	for i := range 600 {
		stream = binary.LittleEndian.AppendUint16(stream, uint16(i*7919))
	}
	return [][2][]byte{
		{base, stream},
		{wide, stream},
		{inOrder, append([]byte{5, 40, 0}, stream[3:]...)},
		{base, []byte{9, 0, 100, 1, 0, 0x80, 0x80, 2, 0}},
	}
}

// FuzzReplay: for any configuration Validate accepts, replaying any
// trace never panics and keeps the conservation laws of
// TestStatsAccounting. With no warmup, the pump's predictor and L1I
// counts also equal the standalone components' (TestPumpMatchesComponents).
func FuzzReplay(f *testing.F) {
	empties := emptyTraces()
	for _, seed := range replaySeeds(f) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, cfgBytes, traceBytes []byte) {
		cfg := fuzzConfig(cfgBytes)
		if cfg.Validate() != nil {
			return
		}
		tr, lim := fuzzTrace(empties, traceBytes)
		if tr == nil {
			return
		}
		st, err := uarch.ReplayContext(context.Background(), tr, cfg, lim)
		if err != nil {
			if cfg.Predictor != "unknown" {
				t.Fatalf("replay of a consistent trace: %v", err)
			}
			return
		}
		label := fmt.Sprintf("%+v %+v", cfg, lim)
		checkInvariants(t, label, st, lim.Warmup > 0)
		if lim.Warmup == 0 {
			checkComponents(t, label, tr, st, lim.MaxInsts)
		}
	})
}

// FuzzRunTrace: for any configuration Validate accepts, timing any
// instruction stream through RunTrace, the entry point statistical
// simulation feeds, never panics and keeps the conservation laws of
// TestStatsAccounting. Unlike a trace replay, the stream follows no
// program's control flow (fuzzStream).
func FuzzRunTrace(f *testing.F) {
	empties := emptyTraces()
	for _, seed := range replaySeeds(f) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, cfgBytes, streamBytes []byte) {
		cfg := fuzzConfig(cfgBytes)
		if cfg.Validate() != nil {
			return
		}
		insts, lim := fuzzStream(empties, streamBytes)
		if insts == nil {
			return
		}
		st, err := uarch.RunTrace(context.Background(), cfg, lim, uint64(len(insts)), func(i uint64) uarch.TraceInst { return insts[i] })
		if err != nil {
			if cfg.Predictor != "unknown" {
				t.Fatalf("timing a stream: %v", err)
			}
			return
		}
		checkInvariants(t, fmt.Sprintf("%+v %+v", cfg, lim), st, lim.Warmup > 0)
	})
}

// emptyTraces returns an empty trace of each workload, held for its
// program and static table.
func emptyTraces() []*dyntrace.Trace {
	var empties []*dyntrace.Trace
	for _, w := range workloads.All() {
		empties = append(empties, dyntrace.FromColumns(w.Build(), nil, nil, nil, 0, false))
	}
	return empties
}
