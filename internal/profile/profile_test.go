package profile

import (
	"context"
	"testing"
	"testing/quick"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

func r(i int) isa.Reg { return isa.IntReg(i) }

// stridedProgram walks an array of n words with the given byte stride,
// then halts.
func stridedProgram(t *testing.T, n int, stride int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("strided")
	base := b.Zeros("arr", uint64(n)*uint64(abs(stride))+64)
	start := int64(base)
	if stride < 0 {
		start += int64(n-1) * -stride
	}
	b.Label("entry")
	b.Li(r(1), start)
	b.Li(r(2), int64(n))
	b.Label("loop")
	b.Ld(r(3), r(1), 0)
	b.Addi(r(1), r(1), stride)
	b.Addi(r(2), r(2), -1)
	b.Bne(r(2), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestDepBucketBoundaries(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4,
		9: 5, 16: 5, 17: 6, 32: 6, 33: 7, 1000: 7}
	for dist, want := range cases {
		if got := DepBucket(dist); got != want {
			t.Errorf("DepBucket(%d) = %d want %d", dist, got, want)
		}
	}
}

func TestStrideDetection(t *testing.T) {
	for _, stride := range []int64{8, -8, 16, 1} {
		p := stridedProgram(t, 100, stride)
		prof, err := CollectContext(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(prof.MemList) != 1 {
			t.Fatalf("stride %d: want 1 static mem op, got %d", stride, len(prof.MemList))
		}
		m := prof.MemList[0]
		if m.DominantStride != stride {
			t.Errorf("stride %d: dominant %d", stride, m.DominantStride)
		}
		if m.Count != 100 {
			t.Errorf("stride %d: count %d", stride, m.Count)
		}
		// 99 transitions, all at the dominant stride.
		if m.DominantCount != 99 {
			t.Errorf("stride %d: dominant count %d", stride, m.DominantCount)
		}
		if cov := prof.StrideCoverage(); cov != 1.0 {
			t.Errorf("stride %d: coverage %f", stride, cov)
		}
		wantSpan := uint64(99)*uint64(abs(stride)) + 8
		if m.Span() != wantSpan {
			t.Errorf("stride %d: span %d want %d", stride, m.Span(), wantSpan)
		}
	}
}

func TestStreamRunLengths(t *testing.T) {
	// Walk 10 elements, reset, repeat 5 times: runs of 10 broken by the
	// reset jump.
	b := prog.NewBuilder("runs")
	base := b.Zeros("arr", 256)
	b.Label("entry")
	b.Li(r(4), 5) // outer
	b.Label("outer")
	b.Li(r(1), int64(base))
	b.Li(r(2), 10)
	b.Label("loop")
	b.Ld(r(3), r(1), 0)
	b.Addi(r(1), r(1), 8)
	b.Addi(r(2), r(2), -1)
	b.Bne(r(2), isa.RZero, "loop")
	b.Label("onext")
	b.Addi(r(4), r(4), -1)
	b.Bne(r(4), isa.RZero, "outer")
	b.Label("end")
	b.Halt()
	prof, err := CollectContext(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := prof.MemList[0]
	// Runs: 10,10,10,10,10 broken by reset strides: mean run length
	// should be close to 9-10 (the reset delta breaks a run).
	if m.MeanStreamLen < 8 || m.MeanStreamLen > 11 {
		t.Errorf("mean stream length %f, want ≈10", m.MeanStreamLen)
	}
	// Revisit factor: 50 accesses × 8B over an 80B span ≈ 5.
	if m.Span() != 9*8+8 {
		t.Errorf("span %d", m.Span())
	}
}

func TestSFGStructure(t *testing.T) {
	// Diamond: entry → (then | else) → join, looped 10 times, biased
	// 50/50 by parity.
	b := prog.NewBuilder("diamond")
	b.Label("entry")
	b.Li(r(1), 10)
	b.Label("head") // block 1
	b.Li(r(2), 1)
	b.And(r(2), r(1), r(2))
	b.Beq(r(2), isa.RZero, "even")
	b.Label("odd") // block 2
	b.Addi(r(3), r(3), 1)
	b.Jmp("join")
	b.Label("even") // block 3
	b.Addi(r(4), r(4), 1)
	b.Label("join") // block 4
	b.Addi(r(1), r(1), -1)
	b.Bne(r(1), isa.RZero, "head")
	b.Label("end")
	b.Halt()
	diamond := b.MustBuild()
	prof, err := CollectContext(context.Background(), diamond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The join block must appear as two SFG nodes: one per predecessor.
	joinNodes := 0
	for _, n := range prof.NodeList {
		if n.Key.Block == 4 {
			joinNodes++
			if n.Key.Prev != 2 && n.Key.Prev != 3 {
				t.Errorf("join node with unexpected predecessor %d", n.Key.Prev)
			}
		}
	}
	if joinNodes != 2 {
		t.Fatalf("join block has %d context nodes, want 2 (per-predecessor profiling)", joinNodes)
	}
	// With PerBlockNodes the context collapses.
	flat, err := CollectContext(context.Background(), diamond, Options{PerBlockNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	joinNodes = 0
	for _, n := range flat.NodeList {
		if n.Key.Block == 4 {
			joinNodes++
		}
	}
	if joinNodes != 1 {
		t.Fatalf("PerBlockNodes: join has %d nodes, want 1", joinNodes)
	}
	// Successor probabilities of the head node: ~50/50 to blocks 2 / 3.
	for _, n := range prof.NodeList {
		if n.Key.Block != 1 {
			continue
		}
		if n.Succ[2]+n.Succ[3] != n.Count {
			t.Errorf("head successors %v do not sum to count %d", n.Succ, n.Count)
		}
	}
}

func TestBranchRates(t *testing.T) {
	// A branch taken on every second execution: taken rate 0.5,
	// transition rate ≈ 1.
	b := prog.NewBuilder("toggle")
	b.Label("entry")
	b.Li(r(1), 100)
	b.Label("head")
	b.Li(r(2), 1)
	b.And(r(2), r(1), r(2))
	b.Beq(r(2), isa.RZero, "skip")
	b.Label("mid")
	b.Addi(r(3), r(3), 1)
	b.Label("skip")
	b.Addi(r(1), r(1), -1)
	b.Bne(r(1), isa.RZero, "head")
	b.Label("end")
	b.Halt()
	prof, err := CollectContext(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var toggleBr, loopBr *BranchStat
	for _, bs := range prof.BranchList {
		switch bs.Ref.Block {
		case 1:
			toggleBr = bs
		case 3:
			loopBr = bs
		}
	}
	if toggleBr == nil || loopBr == nil {
		t.Fatal("missing branch stats")
	}
	if tr := toggleBr.TakenRate(); tr < 0.45 || tr > 0.55 {
		t.Errorf("toggle taken rate %f", tr)
	}
	if tr := toggleBr.TransitionRate(); tr < 0.95 {
		t.Errorf("toggle transition rate %f, want ≈1", tr)
	}
	if tr := loopBr.TakenRate(); tr < 0.98 {
		t.Errorf("loop taken rate %f, want ≈1", tr)
	}
	if tr := loopBr.TransitionRate(); tr > 0.05 {
		t.Errorf("loop transition rate %f, want ≈0", tr)
	}
}

func TestDependencyDistances(t *testing.T) {
	// A chain of distance-1 dependences.
	b := prog.NewBuilder("chain")
	b.Label("entry")
	b.Li(r(1), 1)
	b.Li(r(4), 1000)
	b.Label("loop")
	b.Add(r(1), r(1), r(1)) // always reads the previous write
	b.Addi(r(4), r(4), -1)
	b.Bne(r(4), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	prof, err := CollectContext(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tot uint64
	for _, c := range prof.GlobalDepDist {
		tot += c
	}
	// Distance-1 (bucket 0) should dominate: the Add reads r1 written
	// 3 insts ago... Add's two reads of r1 land in bucket ≤4, the
	// Addi/Bne chain is distance 1-2.
	short := prof.GlobalDepDist[0] + prof.GlobalDepDist[1] + prof.GlobalDepDist[2]
	if float64(short)/float64(tot) < 0.9 {
		t.Errorf("short dependences %d/%d, want >90%%", short, tot)
	}
}

func TestTermKinds(t *testing.T) {
	b := prog.NewBuilder("terms")
	b.Label("entry")
	b.Li(r(1), 1) // fall-through block
	b.Label("branchy")
	b.Beq(r(1), r(1), "jumpy")
	b.Label("mid")
	b.Li(r(2), 2)
	b.Label("jumpy")
	b.Jmp("end")
	b.Label("end")
	b.Halt()
	prof, err := CollectContext(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]TermKind{0: TermFall, 1: TermBranch, 3: TermJump, 4: TermHalt}
	for _, n := range prof.NodeList {
		if w, ok := want[n.Key.Block]; ok && n.Term != w {
			t.Errorf("block %d term %d want %d", n.Key.Block, n.Term, w)
		}
	}
}

func TestProfileCountsConsistent(t *testing.T) {
	// Property: over random strided programs, Σ node counts × sizes =
	// total instructions, and mix sums match.
	fn := func(seed uint8) bool {
		n := 50 + int(seed)%100
		p := stridedProgram(t, n, 8)
		prof, err := CollectContext(context.Background(), p, Options{})
		if err != nil {
			return false
		}
		var byNodes uint64
		for _, nd := range prof.NodeList {
			byNodes += nd.Count * uint64(nd.Size)
		}
		var byMix uint64
		for _, c := range prof.GlobalMix {
			byMix += c
		}
		return byNodes == prof.TotalInsts && byMix == prof.TotalInsts
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaxInstsBound(t *testing.T) {
	p := stridedProgram(t, 1000, 8)
	prof, err := CollectContext(context.Background(), p, Options{MaxInsts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalInsts != 100 {
		t.Fatalf("profiled %d insts, want 100", prof.TotalInsts)
	}
}

func TestTransitionRateDegenerateCounts(t *testing.T) {
	// 0 executions: no transitions are defined; rate must be 0, not NaN
	// (Count-1 underflows the naive formula).
	var bs BranchStat
	if tr := bs.TransitionRate(); tr != 0 {
		t.Errorf("0 executions: transition rate %v, want 0", tr)
	}
	if tr := bs.TakenRate(); tr != 0 {
		t.Errorf("0 executions: taken rate %v, want 0", tr)
	}
	// 1 execution: still no consecutive pair to transition between.
	bs = BranchStat{Count: 1, Taken: 1}
	if tr := bs.TransitionRate(); tr != 0 {
		t.Errorf("1 execution: transition rate %v, want 0", tr)
	}
	if tr := bs.TakenRate(); tr != 1 {
		t.Errorf("1 taken execution: taken rate %v, want 1", tr)
	}
	// Sanity at 2 executions with one direction change.
	bs = BranchStat{Count: 2, Taken: 1, Transitions: 1}
	if tr := bs.TransitionRate(); tr != 1 {
		t.Errorf("2 executions, 1 transition: rate %v, want 1", tr)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	// The trailing stream run must be folded into the statistics exactly
	// once: a second finalize (e.g. a defensive re-finalize after a
	// serialization round-trip) used to re-close the last run and skew
	// MeanStreamLen upward.
	p := stridedProgram(t, 100, 8)
	prof, err := CollectContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		mean        float64
		runs, total uint64
		domS        int64
		domC        uint64
	}
	take := func() []snap {
		out := make([]snap, 0, len(prof.MemList))
		for _, m := range prof.MemList {
			out = append(out, snap{m.MeanStreamLen, m.runs, m.runTotal, m.DominantStride, m.DominantCount})
		}
		return out
	}
	before := take()
	if before[0].runs == 0 {
		t.Fatal("strided program should have at least one closed run")
	}
	prof.finalize()
	after := take()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("mem op %d: finalize not idempotent: %+v -> %+v", i, before[i], after[i])
		}
	}
}
