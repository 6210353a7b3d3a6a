package uarch

import (
	"context"
	"errors"
	"testing"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

func TestNextLinePrefetchHelpsSequentialWalks(t *testing.T) {
	// Walk at exactly the L1D line size (32 B) so every access opens a
	// new line and the next-line prefetch is always the next demand.
	b := progBuilderForStride(t, 4000, 32)
	p := b
	off := BaseConfig()
	on := BaseConfig()
	on.NextLinePrefetch = true
	stOff := mustRun(t, p, off)
	stOn := mustRun(t, p, on)
	if stOn.Prefetches == 0 {
		t.Fatal("prefetcher never fired")
	}
	if stOff.Prefetches != 0 {
		t.Fatal("prefetch counted while disabled")
	}
	if stOn.L1D.MissRate() >= stOff.L1D.MissRate() {
		t.Fatalf("prefetch did not cut demand misses: %.3f vs %.3f",
			stOn.L1D.MissRate(), stOff.L1D.MissRate())
	}
	if stOn.IPC() <= stOff.IPC() {
		t.Fatalf("prefetch did not help IPC: %.3f vs %.3f", stOn.IPC(), stOff.IPC())
	}
}

// progBuilderForStride builds a load loop walking n elements at the given
// byte stride.
func progBuilderForStride(t *testing.T, n int, stride int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("walk")
	base := b.Zeros("arr", uint64(n)*uint64(stride)+64)
	b.Label("e")
	b.Li(r(1), int64(base))
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

func TestRunTraceBasics(t *testing.T) {
	cfg := BaseConfig()
	// A stream of independent integer ALU ops with a taken loop branch
	// every 10 instructions.
	gen := func(i uint64) TraceInst {
		ti := TraceInst{
			PC:    1<<41 + (i%100)*8,
			Class: isa.ClassIntALU,
			Dest:  isa.IntReg(1 + int(i)%8),
			Src1:  isa.IntReg(1 + int(i+3)%8),
			Src2:  isa.IntReg(1 + int(i+5)%8),
		}
		if i%10 == 9 {
			ti.Class = isa.ClassBranch
			ti.Branch = true
			ti.Taken = true
			ti.Dest = isa.NoReg
		}
		return ti
	}
	st, err := RunTrace(context.Background(), cfg, Limits{}, 50_000, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != 50_000 {
		t.Fatalf("committed %d, want 50000", st.Insts)
	}
	if st.IPC() <= 0 || st.IPC() > float64(cfg.Width) {
		t.Fatalf("IPC %f out of range", st.IPC())
	}
	if st.BranchLookups != 5_000 {
		t.Fatalf("branch lookups %d, want 5000", st.BranchLookups)
	}
	// A warmup-bounded trace run measures only the post-warmup portion.
	warm, err := RunTrace(context.Background(), cfg, Limits{Warmup: 20_000}, 50_000, gen)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Insts != 30_000 {
		t.Fatalf("measured %d after warmup, want 30000", warm.Insts)
	}
	// MaxInsts clips the generated stream.
	clipped, err := RunTrace(context.Background(), cfg, Limits{MaxInsts: 1_000}, 50_000, gen)
	if err != nil {
		t.Fatal(err)
	}
	if clipped.Insts != 1_000 {
		t.Fatalf("clipped run committed %d", clipped.Insts)
	}
}

// TestRunTraceCancelled: a synthetic run under an already-cancelled
// context must return the context's cause with zero Stats, without
// generating the stream.
func TestRunTraceCancelled(t *testing.T) {
	cause := errors.New("stage abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	var generated uint64
	gen := func(i uint64) TraceInst {
		generated++
		return TraceInst{PC: 1<<41 + (i%64)*8, Class: isa.ClassIntALU, Dest: isa.IntReg(1)}
	}
	st, err := RunTrace(ctx, BaseConfig(), Limits{}, 3*streamChunk, gen)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if st != (Stats{}) {
		t.Fatalf("cancelled run returned stats %+v", st)
	}
	if generated != 0 {
		t.Fatalf("cancelled run generated %d records", generated)
	}
}

func TestRunTraceMemoryStream(t *testing.T) {
	cfg := BaseConfig()
	// Line-stride loads thrash the L1D; the same loads at one address
	// hit. RunTrace must show the difference.
	mk := func(stride uint64) func(uint64) TraceInst {
		return func(i uint64) TraceInst {
			return TraceInst{
				PC:    1<<41 + (i%64)*8,
				Class: isa.ClassLoad,
				Addr:  4096 + i*stride,
				Dest:  isa.IntReg(1 + int(i)%8),
				Src1:  isa.IntReg(9),
			}
		}
	}
	hot, err := RunTrace(context.Background(), cfg, Limits{}, 20_000, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunTrace(context.Background(), cfg, Limits{}, 20_000, mk(64))
	if err != nil {
		t.Fatal(err)
	}
	if hot.L1D.MissRate() > 0.01 {
		t.Fatalf("hot loads missing: %.3f", hot.L1D.MissRate())
	}
	if cold.L1D.MissRate() < 0.9 {
		t.Fatalf("cold loads hitting: %.3f", cold.L1D.MissRate())
	}
	if cold.IPC() >= hot.IPC() {
		t.Fatalf("memory latency not charged: %.3f vs %.3f", cold.IPC(), hot.IPC())
	}
}
