package uarch_test

import (
	"context"
	"fmt"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/isa"
	"perfclone/internal/uarch"
)

// Closed-form oracles: single-feature streams whose answer follows from
// the configuration by arithmetic, so the timing core is checked against
// something other than itself. Every expected value below is a formula
// over the configuration and the ISA's latency table; none is a recorded
// simulator output. An effect a formula does not cover (a cold pipeline,
// cold caches) is kept out of the window by the warmup, or the case is
// left out.

const (
	oracleWarmup = 10_000
	oracleInsts  = 200_000
	// oracleLoop is the stream's static footprint in instructions: a
	// loop this short stays in the L1I after the warmup.
	oracleLoop = 64
	// oracleEdge bounds what the two edges of the measured window add to
	// a closed-form cycle count: at most one cycle each, where the
	// warmup's last commit and the final drain fall inside the window.
	oracleEdge = 2
)

func oracleConfig(width, alus int) uarch.Config {
	cfg := uarch.BaseConfig()
	cfg.Name = fmt.Sprintf("oracle-w%d-alu%d", width, alus)
	cfg.Width, cfg.IntALUs = width, alus
	cfg.ROBSize, cfg.LSQSize = 64, 32
	return cfg
}

func oraclePC(i uint64) uint64 { return 1<<20 + (i%oracleLoop)*4 }

// runOracle times gen's stream on cfg after the warmup.
func runOracle(t *testing.T, cfg uarch.Config, gen func(i uint64) uarch.TraceInst) uarch.Stats {
	t.Helper()
	st, err := uarch.RunTrace(context.Background(), cfg, uarch.Limits{Warmup: oracleWarmup}, oracleInsts, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != oracleInsts-oracleWarmup {
		t.Fatalf("measured %d instructions, want %d", st.Insts, oracleInsts-oracleWarmup)
	}
	return st
}

// checkCycles requires st to take the closed-form cycle count want, up
// to the window edges.
func checkCycles(t *testing.T, st uarch.Stats, want uint64) {
	t.Helper()
	if st.Cycles < want || st.Cycles > want+oracleEdge {
		t.Errorf("%d insts in %d cycles (IPC %.6f), closed form %d cycles (IPC %.6f)",
			st.Insts, st.Cycles, st.IPC(), want, float64(st.Insts)/float64(want))
	}
}

// TestOracleDependentChain: when every instruction reads the previous
// one's result, one instruction completes per latency, so IPC is
// 1/latency of the class, whatever the width.
func TestOracleDependentChain(t *testing.T) {
	classes := []struct {
		class isa.Class
		reg   isa.Reg
	}{
		{isa.ClassIntALU, isa.IntReg(5)},
		{isa.ClassIntMul, isa.IntReg(5)},
		{isa.ClassIntDiv, isa.IntReg(5)},
		{isa.ClassFPAdd, isa.FPReg(5)},
		{isa.ClassFPMul, isa.FPReg(5)},
		{isa.ClassFPDiv, isa.FPReg(5)},
	}
	for _, c := range classes {
		t.Run(c.class.String(), func(t *testing.T) {
			st := runOracle(t, oracleConfig(4, 2), func(i uint64) uarch.TraceInst {
				return uarch.TraceInst{PC: oraclePC(i), Class: c.class, Dest: c.reg, Src1: c.reg, Src2: isa.NoReg}
			})
			checkCycles(t, st, st.Insts*uint64(c.class.Latency()))
		})
	}
}

// TestOracleIndependentALU: single-cycle ops with no dependences issue
// as fast as the narrower of the pipeline width and the ALU pool allows.
func TestOracleIndependentALU(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		for _, alus := range []int{1, 2, 4} {
			cfg := oracleConfig(width, alus)
			t.Run(cfg.Name, func(t *testing.T) {
				st := runOracle(t, cfg, func(i uint64) uarch.TraceInst {
					return uarch.TraceInst{PC: oraclePC(i), Class: isa.ClassIntALU, Dest: isa.IntReg(1 + int(i%8)), Src1: isa.NoReg, Src2: isa.NoReg}
				})
				ipc := uint64(min(width, alus))
				checkCycles(t, st, (st.Insts+ipc-1)/ipc)
			})
		}
	}
}

// TestOracleNotTakenOnTakenBranches: a static not-taken predictor
// mispredicts every taken branch, so a stream of always-taken branches
// mispredicts 100 % of its lookups.
func TestOracleNotTakenOnTakenBranches(t *testing.T) {
	cfg := oracleConfig(1, 2)
	cfg.Predictor = "not-taken"
	st := runOracle(t, cfg, func(i uint64) uarch.TraceInst {
		ti := uarch.TraceInst{PC: oraclePC(i), Class: isa.ClassIntALU, Dest: isa.IntReg(1), Src1: isa.NoReg, Src2: isa.NoReg}
		if i%4 == 3 {
			ti = uarch.TraceInst{PC: oraclePC(i), Class: isa.ClassBranch, Branch: true, Taken: true, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
		}
		return ti
	})
	if want := st.Insts / 4; st.BranchLookups != want || st.BranchMispredict != st.BranchLookups {
		t.Errorf("%d of %d branches mispredicted, want all of %d", st.BranchMispredict, st.BranchLookups, want)
	}
}

// TestOracleCyclicFootprint: loads that walk a footprint of N lines
// line by line, over and over, starting at an address aligned to every
// cache. With S sets and A ways, line i maps to set i mod S, so set s
// holds k_s = floor(N/S) + [s < N mod S] of the lines. Under LRU a set
// with k_s <= A hits on every pass after the cold one, and a set with
// k_s > A misses on every reference: it cycles through more lines than
// it has ways, and LRU always evicts the line needed next. So the loop
// misses N + (passes-1) * sum over k_s > A of k_s times. Footprints that
// are powers of two fill every set alike; the others leave some sets
// one line fuller than the rest.
func TestOracleCyclicFootprint(t *testing.T) {
	const passes = 4
	cfgs := cache.Sweep28()
	for _, footprint := range []int{128, 256, 384, 1 << 10, 3 << 10, 4 << 10, 12 << 10, 16 << 10, 17 << 10, 24 << 10, 32 << 10} {
		rs, err := cache.NewReplaySet(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for range passes {
			for a := 0; a < footprint; a += 32 {
				rs.Access(uint64(1<<24+a), false)
			}
		}
		for k, st := range rs.Stats() {
			cfg := cfgs[k]
			n := footprint / cfg.LineSize
			ways := cfg.Assoc
			if ways == 0 { // fully associative: one set
				ways = cfg.Size / cfg.LineSize
			}
			sets := cfg.Size / cfg.LineSize / ways
			thrashing := 0 // lines in sets that hold more lines than ways
			for s := range sets {
				ks := n / sets
				if s < n%sets {
					ks++
				}
				if ks > ways {
					thrashing += ks
				}
			}
			want := uint64(n + (passes-1)*thrashing)
			if st.Accesses != uint64(passes*n) || st.Misses != want {
				t.Errorf("%s, %d-byte loop: %d misses in %d accesses, closed form %d in %d",
					cfg, footprint, st.Misses, st.Accesses, want, passes*n)
			}
		}
	}
}
