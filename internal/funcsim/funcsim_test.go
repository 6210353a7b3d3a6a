package funcsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

// buildAndRun assembles a program via fn and runs it to completion.
func buildAndRun(t *testing.T, fn func(b *prog.Builder)) *Machine {
	t.Helper()
	b := prog.NewBuilder("t")
	fn(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunColumns(Limits{MaxInsts: 100000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	return m
}

func r(i int) isa.Reg { return isa.IntReg(i) }
func f(i int) isa.Reg { return isa.FPReg(i) }

func TestIntArithmetic(t *testing.T) {
	cases := []struct {
		name string
		op   func(b *prog.Builder)
		want int64
	}{
		{"add", func(b *prog.Builder) { b.Add(r(3), r(1), r(2)) }, 7 + -3},
		{"sub", func(b *prog.Builder) { b.Sub(r(3), r(1), r(2)) }, 7 - -3},
		{"and", func(b *prog.Builder) { b.And(r(3), r(1), r(2)) }, 7 & -3},
		{"or", func(b *prog.Builder) { b.Or(r(3), r(1), r(2)) }, 7 | -3},
		{"xor", func(b *prog.Builder) { b.Xor(r(3), r(1), r(2)) }, 7 ^ -3},
		{"mul", func(b *prog.Builder) { b.Mul(r(3), r(1), r(2)) }, -21},
		{"div", func(b *prog.Builder) { b.Div(r(3), r(1), r(2)) }, 7 / -3},
		{"rem", func(b *prog.Builder) { b.Rem(r(3), r(1), r(2)) }, 7 % -3},
		{"slt", func(b *prog.Builder) { b.Slt(r(3), r(1), r(2)) }, 0},   // 7 < -3 false
		{"sltu", func(b *prog.Builder) { b.Sltu(r(3), r(1), r(2)) }, 1}, // 7 < uint(-3) true
		{"addi", func(b *prog.Builder) { b.Addi(r(3), r(1), 100) }, 107},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := buildAndRun(t, func(b *prog.Builder) {
				b.Label("e")
				b.Li(r(1), 7)
				b.Li(r(2), -3)
				c.op(b)
				b.Halt()
			})
			if got := m.IntReg(3); got != c.want {
				t.Fatalf("got %d want %d", got, c.want)
			}
		})
	}
}

func TestShifts(t *testing.T) {
	m := buildAndRun(t, func(b *prog.Builder) {
		b.Label("e")
		b.Li(r(1), -16)
		b.Li(r(2), 2)
		b.Shl(r(3), r(1), r(2)) // -64
		b.Shr(r(4), r(1), r(2)) // logical
		b.Sar(r(5), r(1), r(2)) // arithmetic: -4
		b.Halt()
	})
	if got := m.IntReg(3); got != -64 {
		t.Errorf("shl: %d", got)
	}
	if got := m.IntReg(4); got != int64(uint64(0xFFFFFFFFFFFFFFF0)>>2) {
		t.Errorf("shr: %d", got)
	}
	if got := m.IntReg(5); got != -4 {
		t.Errorf("sar: %d", got)
	}
}

func TestDivideByZeroIsDefined(t *testing.T) {
	m := buildAndRun(t, func(b *prog.Builder) {
		b.Label("e")
		b.Li(r(1), 42)
		b.Div(r(3), r(1), isa.RZero)
		b.Rem(r(4), r(1), isa.RZero)
		b.Halt()
	})
	if m.IntReg(3) != 0 || m.IntReg(4) != 0 {
		t.Fatalf("div/rem by zero: %d %d, want 0 0", m.IntReg(3), m.IntReg(4))
	}
}

func TestZeroRegisterIsHardwired(t *testing.T) {
	m := buildAndRun(t, func(b *prog.Builder) {
		b.Label("e")
		b.Li(isa.RZero, 99) // write discarded
		b.Addi(r(1), isa.RZero, 5)
		b.Halt()
	})
	if m.IntReg(0) != 0 {
		t.Fatal("r0 was written")
	}
	if m.IntReg(1) != 5 {
		t.Fatal("r0 did not read as zero")
	}
}

func TestFloatingPoint(t *testing.T) {
	m := buildAndRun(t, func(b *prog.Builder) {
		b.Label("e")
		b.Li(r(1), 7)
		b.Li(r(2), 2)
		b.CvtIF(f(0), r(1))
		b.CvtIF(f(1), r(2))
		b.FAdd(f(2), f(0), f(1))   // 9
		b.FSub(f(3), f(0), f(1))   // 5
		b.FMul(f(4), f(0), f(1))   // 14
		b.FDiv(f(5), f(0), f(1))   // 3.5
		b.FNeg(f(6), f(5))         // -3.5
		b.FCmpLt(r(3), f(1), f(0)) // 2 < 7 → 1
		b.CvtFI(r(4), f(5))        // 3
		b.Halt()
	})
	for i, want := range map[int]float64{2: 9, 3: 5, 4: 14, 5: 3.5, 6: -3.5} {
		if got := m.FPReg(i); got != want {
			t.Errorf("f%d = %v want %v", i, got, want)
		}
	}
	if m.IntReg(3) != 1 {
		t.Error("fcmp")
	}
	if m.IntReg(4) != 3 {
		t.Error("cvtfi truncation")
	}
}

// TestCvtFIHandlesNaNAndInf: CvtFI of NaN or ±Inf is 0, and of a
// finite value at or beyond ±2^63 MinInt64 (isa.OpCvtFI), in RunColumns
// and RunReference alike.
func TestCvtFIHandlesNaNAndInf(t *testing.T) {
	big := []float64{0x1p63, -0x1p63, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	build := func(b *prog.Builder) {
		base := b.Floats("big", big)
		b.Label("e")
		// 0/0 → NaN; 1/0 → +Inf.
		b.Li(r(1), 1)
		b.CvtIF(f(0), isa.RZero)
		b.CvtIF(f(1), r(1))
		b.FDiv(f(2), f(0), f(0)) // NaN
		b.FDiv(f(3), f(1), f(0)) // Inf
		b.FNeg(f(4), f(3))       // -Inf
		b.CvtFI(r(2), f(2))
		b.CvtFI(r(3), f(3))
		b.CvtFI(r(4), f(4))
		b.Li(r(1), int64(base))
		for i := range big {
			b.FLd(f(5+i), r(1), int64(8*i))
			b.CvtFI(r(5+i), f(5+i))
		}
		b.Halt()
	}
	m := buildAndRun(t, build)
	if !math.IsNaN(m.FPReg(2)) || !math.IsInf(m.FPReg(3), 1) || !math.IsInf(m.FPReg(4), -1) {
		t.Fatal("FP special values not produced")
	}
	bld := prog.NewBuilder("t")
	build(bld)
	ref, err := New(bld.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunReference(Limits{}, nil); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Machine{"RunColumns": m, "RunReference": ref} {
		if m.IntReg(2) != 0 || m.IntReg(3) != 0 || m.IntReg(4) != 0 {
			t.Errorf("%s: CvtFI of NaN/±Inf gave %d %d %d, want 0 (defined behaviour)", name, m.IntReg(2), m.IntReg(3), m.IntReg(4))
		}
		for i, v := range big {
			if got := m.IntReg(5 + i); got != math.MinInt64 {
				t.Errorf("%s: CvtFI(%g) = %d, want MinInt64", name, v, got)
			}
		}
	}
}

func TestMemoryWidths(t *testing.T) {
	m := buildAndRun(t, func(b *prog.Builder) {
		base := b.Zeros("buf", 64)
		b.Label("e")
		b.Li(r(1), int64(base))
		b.Li(r(2), -1) // 0xFF..FF
		b.St(r(2), r(1), 0)
		b.St4(r(2), r(1), 16)
		b.St1(r(2), r(1), 32)
		b.Ld(r(3), r(1), 0)   // -1
		b.Ld4(r(4), r(1), 16) // sign-extended -1
		b.Ld1(r(5), r(1), 32) // zero-extended 255
		b.Ld(r(6), r(1), 17)  // bytes 17..24: 0xFF FF FF 00 ... = 0xFFFFFF
		b.Halt()
	})
	if m.IntReg(3) != -1 {
		t.Errorf("ld: %d", m.IntReg(3))
	}
	if m.IntReg(4) != -1 {
		t.Errorf("ld4 sign extension: %d", m.IntReg(4))
	}
	if m.IntReg(5) != 255 {
		t.Errorf("ld1 zero extension: %d", m.IntReg(5))
	}
	if m.IntReg(6) != 0xFFFFFF {
		t.Errorf("unaligned ld: %#x", m.IntReg(6))
	}
}

func TestFloatMemoryRoundTrip(t *testing.T) {
	m := buildAndRun(t, func(b *prog.Builder) {
		base := b.Floats("buf", []float64{2.75})
		b.Label("e")
		b.Li(r(1), int64(base))
		b.FLd(f(0), r(1), 0)
		b.FMul(f(1), f(0), f(0))
		b.FSt(f(1), r(1), 8)
		b.FLd(f(2), r(1), 8)
		b.Halt()
	})
	if got := m.FPReg(2); got != 2.75*2.75 {
		t.Fatalf("round trip: %v", got)
	}
}

func TestMemoryOutOfBounds(t *testing.T) {
	b := prog.NewBuilder("oob")
	b.Zeros("buf", 8)
	b.Label("e")
	b.Li(r(1), 1<<40)
	b.Ld(r(2), r(1), 0)
	b.Halt()
	m, err := New(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunColumns(Limits{}, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestBranchDirections(t *testing.T) {
	cases := []struct {
		name  string
		setup func(b *prog.Builder) // emits the branch to "taken"
		taken bool
	}{
		{"beq taken", func(b *prog.Builder) { b.Beq(r(1), r(1), "taken") }, true},
		{"beq not", func(b *prog.Builder) { b.Beq(r(1), r(2), "taken") }, false},
		{"bne taken", func(b *prog.Builder) { b.Bne(r(1), r(2), "taken") }, true},
		{"blt taken", func(b *prog.Builder) { b.Blt(r(2), r(1), "taken") }, true}, // -3 < 7
		{"blt not", func(b *prog.Builder) { b.Blt(r(1), r(2), "taken") }, false},
		{"bge taken", func(b *prog.Builder) { b.Bge(r(1), r(2), "taken") }, true},
		{"bltu taken", func(b *prog.Builder) { b.Bltu(r(1), r(2), "taken") }, true}, // 7 < uint(-3)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := buildAndRun(t, func(b *prog.Builder) {
				b.Label("e")
				b.Li(r(1), 7)
				b.Li(r(2), -3)
				c.setup(b)
				b.Label("fall")
				b.Li(r(10), 1)
				b.Jmp("end")
				b.Label("taken")
				b.Li(r(10), 2)
				b.Label("end")
				b.Halt()
			})
			want := int64(1)
			if c.taken {
				want = 2
			}
			if got := m.IntReg(10); got != want {
				t.Fatalf("landed wrong: r10=%d want %d", got, want)
			}
		})
	}
}

func TestObserverEvents(t *testing.T) {
	b := prog.NewBuilder("obs")
	base := b.Zeros("buf", 16)
	b.Label("e")
	b.Li(r(1), int64(base))
	b.Li(r(2), 3)
	b.Label("loop")
	b.St(r(2), r(1), 8)
	b.Addi(r(2), r(2), -1)
	b.Bne(r(2), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	p := b.MustBuild()

	var seqs []uint64
	var addrs []uint64
	branches := 0
	takens := 0
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunBatch(Limits{}, func(evs []Event) error {
		for i := range evs {
			ev := &evs[i]
			seqs = append(seqs, ev.Seq)
			if ev.Inst.Op.IsMem() {
				addrs = append(addrs, ev.Addr)
			}
			if ev.Inst.Op.IsBranch() {
				branches++
				if ev.Taken {
					takens++
				}
			}
			if ev.PC == 0 {
				t.Error("zero PC")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("seq %d at position %d", s, i)
		}
	}
	if uint64(len(seqs)) != res.Insts {
		t.Fatalf("observer saw %d events, result says %d", len(seqs), res.Insts)
	}
	if len(addrs) != 3 {
		t.Fatalf("want 3 store events, got %d", len(addrs))
	}
	for _, a := range addrs {
		if a != base+8 {
			t.Fatalf("store addr %d want %d", a, base+8)
		}
	}
	if branches != 3 || takens != 2 {
		t.Fatalf("branches=%d takens=%d, want 3/2", branches, takens)
	}
}

// TestObserverErrorAborts: an observer error ends the run with that
// error, and no later batch is delivered.
func TestObserverErrorAborts(t *testing.T) {
	m, err := New(loopProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n := 0
	_, err = m.RunBatch(Limits{}, func([]Event) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want observer error, got %v", err)
	}
	if n != 1 {
		t.Fatalf("observer saw %d batches, want 1", n)
	}
}

// loopProgram counts down from 5000, so a run to halt spans more than
// one observer batch.
func loopProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("loop")
	b.Label("e")
	b.Li(r(1), 5000)
	b.Label("loop")
	b.Addi(r(1), r(1), -1)
	b.Bne(r(1), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

func TestInstructionLimit(t *testing.T) {
	m, err := New(loopProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunColumns(Limits{MaxInsts: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("should not have halted")
	}
	if res.Insts != 10 {
		t.Fatalf("ran %d insts, want 10", res.Insts)
	}
}

// TestRunDeterminism: identical programs produce identical machines.
func TestRunDeterminism(t *testing.T) {
	fn := func(seed int64) bool {
		mk := func() int64 {
			b := prog.NewBuilder("d")
			base := b.Zeros("buf", 64)
			b.Label("e")
			b.Li(r(1), seed)
			b.Li(r(2), int64(base))
			b.Li(r(3), 17)
			b.Label("loop")
			b.Mul(r(1), r(1), r(3))
			b.Addi(r(1), r(1), 1)
			b.St(r(1), r(2), 0)
			b.Ld(r(4), r(2), 0)
			b.Addi(r(3), r(3), -1)
			b.Bne(r(3), isa.RZero, "loop")
			b.Label("end")
			b.Halt()
			p := b.MustBuild()
			m, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunColumns(Limits{}, nil); err != nil {
				t.Fatal(err)
			}
			return m.IntReg(4)
		}
		return mk() == mk()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestReadMemRejectsBadRanges: a read whose end wraps past 2^64, one
// past the end of memory, and one of negative length are errors, not
// panics; an in-range read returns the bytes.
func TestReadMemRejectsBadRanges(t *testing.T) {
	b := prog.NewBuilder("read")
	base := b.Words("w", []int64{0x0102030405060708})
	b.Label("e")
	b.Halt()
	m, err := New(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(m.mem))
	for _, c := range []struct {
		addr uint64
		n    int
	}{
		{math.MaxUint64 - 3, 8}, // wraps to a small end
		{size - 4, 8},
		{0, -1},
		{base, -8},
	} {
		if got, err := m.ReadMem(c.addr, c.n); err == nil {
			t.Errorf("ReadMem(%#x, %d) = %v, want an error", c.addr, c.n, got)
		}
	}
	got, err := m.ReadMem(base, 8)
	if err != nil || got[0] != 0x08 || got[7] != 0x01 {
		t.Fatalf("ReadMem(%d, 8) = %v, %v", base, got, err)
	}
}
