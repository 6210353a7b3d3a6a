package uarch

import (
	"testing"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

func r(i int) isa.Reg { return isa.IntReg(i) }

// independentALU builds a loop of independent integer adds.
func independentALU(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("alu")
	b.Label("e")
	b.Li(r(1), int64(n))
	b.Label("loop")
	for i := 2; i < 10; i++ {
		b.Addi(r(i), isa.RZero, int64(i))
	}
	b.Addi(r(1), r(1), -1)
	b.Bne(r(1), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

// serialChain builds a loop where every instruction depends on the
// previous one.
func serialChain(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("chain")
	b.Label("e")
	b.Li(r(1), int64(n))
	b.Li(r(2), 1)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.Mul(r(2), r(2), r(2)) // 3-cycle latency, serially dependent
	}
	b.Addi(r(1), r(1), -1)
	b.Bne(r(1), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

// divHeavy builds a loop dominated by 20-cycle divides.
func divHeavy(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("div")
	b.Label("e")
	b.Li(r(1), int64(n))
	b.Li(r(2), 1000)
	b.Li(r(3), 7)
	b.Label("loop")
	b.Div(r(4), r(2), r(3))
	b.Div(r(5), r(2), r(3))
	b.Addi(r(1), r(1), -1)
	b.Bne(r(1), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

// bigStride builds a loop streaming through memory with one-line strides,
// missing in every cache level.
func bigStride(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("mem")
	base := b.Zeros("arr", uint64(n)*64+64)
	b.Label("e")
	b.Li(r(1), int64(base))
	b.Li(r(2), int64(n))
	b.Label("loop")
	b.Ld(r(3), r(1), 0)
	b.Addi(r(1), r(1), 64)
	b.Addi(r(2), r(2), -1)
	b.Bne(r(2), isa.RZero, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

// mustRun times p to completion on cfg.
func mustRun(t *testing.T, p *prog.Program, cfg Config) Stats {
	t.Helper()
	return replayProgram(t, p, cfg, Limits{})
}

func TestBaseConfigValid(t *testing.T) {
	if err := BaseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range DesignChanges() {
		cfg := ch.Apply(BaseConfig())
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", ch.Name, err)
		}
	}
	if len(DesignChanges()) != 5 {
		t.Error("the paper evaluates exactly 5 design changes")
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	p := independentALU(t, 2000)
	for _, width := range []int{1, 2, 4} {
		cfg := BaseConfig()
		cfg.Width = width
		st := mustRun(t, p, cfg)
		if st.IPC() > float64(width)+1e-9 {
			t.Errorf("width %d: IPC %f exceeds width", width, st.IPC())
		}
	}
}

func TestWiderMachineIsFaster(t *testing.T) {
	p := independentALU(t, 2000)
	cfg1 := BaseConfig()
	cfg2 := BaseConfig()
	cfg2.Width = 2
	ipc1 := mustRun(t, p, cfg1).IPC()
	ipc2 := mustRun(t, p, cfg2).IPC()
	if ipc2 <= ipc1 {
		t.Fatalf("2-wide IPC %f not above 1-wide %f on independent code", ipc2, ipc1)
	}
}

func TestSerialChainLimitsILP(t *testing.T) {
	cfg := BaseConfig()
	cfg.Width = 4
	cfg.ROBSize = 64
	ind := mustRun(t, independentALU(t, 2000), cfg).IPC()
	ser := mustRun(t, serialChain(t, 2000), cfg).IPC()
	if ser >= ind {
		t.Fatalf("serial chain IPC %f should be below independent %f", ser, ind)
	}
	// 8 serial 3-cycle multiplies bound the loop at ~24 cycles for 10
	// instructions: IPC must sit near 10/24 ≈ 0.42.
	if ser > 0.6 {
		t.Fatalf("serial chain IPC %f: multiply latency chain not enforced", ser)
	}
}

func TestDividesAreSlow(t *testing.T) {
	alu := mustRun(t, independentALU(t, 1000), BaseConfig()).IPC()
	div := mustRun(t, divHeavy(t, 1000), BaseConfig()).IPC()
	if div >= alu/2 {
		t.Fatalf("divide-heavy IPC %f vs ALU %f: long latencies not modeled", div, alu)
	}
}

func TestCacheMissesCostCycles(t *testing.T) {
	hit := mustRun(t, independentALU(t, 2000), BaseConfig())
	miss := mustRun(t, bigStride(t, 4000), BaseConfig())
	if miss.L1D.MissRate() < 0.9 {
		t.Fatalf("stride-64 walk should miss L1D: %f", miss.L1D.MissRate())
	}
	if miss.IPC() >= hit.IPC()/2 {
		t.Fatalf("memory-bound IPC %f vs compute %f: miss latency not charged", miss.IPC(), hit.IPC())
	}
}

func TestInOrderIsSlower(t *testing.T) {
	// In-order issue stalls behind the long loads; OoO overlaps them.
	p := bigStride(t, 2000)
	ooo := mustRun(t, p, BaseConfig())
	cfg := BaseConfig()
	cfg.InOrder = true
	ino := mustRun(t, p, cfg)
	if ino.IPC() > ooo.IPC()+1e-9 {
		t.Fatalf("in-order IPC %f above out-of-order %f", ino.IPC(), ooo.IPC())
	}
}

func TestPredictorChangeHurtsTakenBranches(t *testing.T) {
	// The loop branch is almost always taken: not-taken predicts it
	// wrong every time.
	p := independentALU(t, 2000)
	base := mustRun(t, p, BaseConfig())
	cfg := BaseConfig()
	cfg.Predictor = "not-taken"
	nt := mustRun(t, p, cfg)
	if nt.MispredRate() < 0.9 {
		t.Fatalf("not-taken mispredict rate %f on a loop", nt.MispredRate())
	}
	if nt.IPC() >= base.IPC() {
		t.Fatalf("not-taken IPC %f not below base %f", nt.IPC(), base.IPC())
	}
	if base.MispredRate() > 0.05 {
		t.Fatalf("GAp mispredict rate %f on a simple loop", base.MispredRate())
	}
}

func TestWarmupExcludesStartup(t *testing.T) {
	p := bigStride(t, 4000)
	full := replayProgram(t, p, BaseConfig(), Limits{MaxInsts: 8000})
	warm := replayProgram(t, p, BaseConfig(), Limits{MaxInsts: 8000, Warmup: 4000})
	if warm.Insts >= full.Insts {
		t.Fatalf("warmup did not shrink measured insts: %d vs %d", warm.Insts, full.Insts)
	}
	if warm.Insts == 0 || warm.Cycles == 0 {
		t.Fatal("nothing measured after warmup")
	}
}

// TestWarmupResetCycleIsMeasured: the warmup reset falls inside a cycle
// whose later commits are measured, so that cycle counts too, and a
// window as short as one cycle still commits at most Width per cycle.
func TestWarmupResetCycleIsMeasured(t *testing.T) {
	cfg := BaseConfig()
	cfg.Width = 2
	cfg.ROBSize = 64
	cfg.IntALUs = 4
	st := replayProgram(t, independentALU(t, 100), cfg, Limits{MaxInsts: 6, Warmup: 3})
	if st.Insts == 0 || st.Cycles*uint64(cfg.Width) < st.Insts {
		t.Fatalf("%d insts in %d cycles at width %d", st.Insts, st.Cycles, cfg.Width)
	}
}

func TestMaxInstsBound(t *testing.T) {
	p := independentALU(t, 100000)
	st := replayProgram(t, p, BaseConfig(), Limits{MaxInsts: 5000})
	if st.Insts != 5000 {
		t.Fatalf("ran %d insts, want 5000", st.Insts)
	}
}

func TestROBPressure(t *testing.T) {
	// A long-latency load followed by many independent instructions: a
	// bigger ROB lets more of them retire under the miss shadow.
	p := bigStride(t, 2000)
	small := BaseConfig()
	small.ROBSize = 4
	small.LSQSize = 2
	big := BaseConfig()
	big.ROBSize = 64
	big.LSQSize = 32
	if s, b := mustRun(t, p, small).IPC(), mustRun(t, p, big).IPC(); s > b+1e-9 {
		t.Fatalf("small ROB IPC %f above big ROB %f", s, b)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := BaseConfig()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = BaseConfig()
	bad.IntALUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("no ALUs accepted")
	}
	bad = BaseConfig()
	bad.L1D.Size = 100
	if err := bad.Validate(); err == nil {
		t.Error("bad cache accepted")
	}
	bad = BaseConfig()
	bad.MemLat = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero memory latency accepted")
	}
	bad = BaseConfig()
	bad.MispredictPenalty = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative mispredict penalty accepted")
	}
}
