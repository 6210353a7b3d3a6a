package fidelity

import (
	"context"
	"strings"
	"testing"

	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
)

// Edge-profile coverage: degenerate but legal workload shapes must clear
// the fidelity gate at default tolerances, with the inapplicable
// attributes skipping rather than failing. These are the profiles the
// corpus never produces — a single-block SFG, a kernel with no memory
// traffic, branches pinned to one direction — exactly where a gate with
// hidden corpus assumptions would misfire.

// gateEdge profiles a hand-built program, runs the closed loop at default
// tolerances, and returns the (passing) report.
func gateEdge(t *testing.T, p *prog.Program) *Report {
	t.Helper()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	clone, rep, err := GenerateContext(context.Background(), prof, synth.Config{}, Options{})
	if err != nil {
		t.Fatalf("gate failed:\n%v", err)
	}
	if clone == nil || !rep.Pass {
		t.Fatalf("gate did not pass:\n%s", rep)
	}
	return rep
}

// note returns the named attribute's note, failing if the attribute is
// missing from the report.
func note(t *testing.T, rep *Report, name string) string {
	t.Helper()
	for _, a := range rep.Attributes {
		if a.Name == name {
			return a.Note
		}
	}
	t.Fatalf("report has no %q attribute:\n%s", name, rep)
	return ""
}

// TestEdgeSingleBlock: a straight-line, single-block program. The SFG has
// one node, so the correlation check must skip, not divide by nothing.
func TestEdgeSingleBlock(t *testing.T) {
	b := prog.NewBuilder("edge-single-block")
	b.Label("entry")
	b.Li(isa.IntReg(1), 3)
	b.Li(isa.IntReg(2), 4)
	for i := 0; i < 30; i++ {
		b.Add(isa.IntReg(3), isa.IntReg(1), isa.IntReg(2))
		b.Xor(isa.IntReg(1), isa.IntReg(3), isa.IntReg(2))
	}
	b.Halt()
	rep := gateEdge(t, b.MustBuild())
	if n := note(t, rep, "sfg-corr"); !strings.Contains(n, "too few") {
		t.Errorf("sfg-corr should skip on a single-node SFG, note=%q", n)
	}
	if n := note(t, rep, "branch-taken"); !strings.Contains(n, "no conditional branches") {
		t.Errorf("branch-taken should skip without branches, note=%q", n)
	}
}

// TestEdgeZeroMemoryOps: a counted ALU loop with no loads or stores. The
// stride attribute must skip; everything else must hold.
func TestEdgeZeroMemoryOps(t *testing.T) {
	b := prog.NewBuilder("edge-no-mem")
	b.Label("entry")
	b.Li(isa.IntReg(1), 0)   // i
	b.Li(isa.IntReg(2), 500) // n
	b.Li(isa.IntReg(3), 7)   // acc seed
	b.Label("loop")
	b.Mul(isa.IntReg(3), isa.IntReg(3), isa.IntReg(3))
	b.Add(isa.IntReg(3), isa.IntReg(3), isa.IntReg(1))
	b.Shr(isa.IntReg(3), isa.IntReg(3), isa.IntReg(1))
	b.Addi(isa.IntReg(1), isa.IntReg(1), 1)
	b.Bne(isa.IntReg(1), isa.IntReg(2), "loop")
	b.Label("done")
	b.Halt()
	rep := gateEdge(t, b.MustBuild())
	if n := note(t, rep, "stride-coverage"); !strings.Contains(n, "no memory operations") {
		t.Errorf("stride-coverage should skip without memory ops, note=%q", n)
	}
}

// TestEdgeAllTakenBranch: besides the loop backedge (taken all but once),
// the body branch is always taken — a taken rate pinned at ~1.
func TestEdgeAllTakenBranch(t *testing.T) {
	b := prog.NewBuilder("edge-all-taken")
	b.Label("entry")
	b.Li(isa.IntReg(1), 0)
	b.Li(isa.IntReg(2), 400)
	b.Label("loop")
	b.Add(isa.IntReg(3), isa.IntReg(1), isa.IntReg(2))
	b.Beq(isa.IntReg(0), isa.IntReg(0), "join") // always taken
	b.Label("dead")
	b.Mul(isa.IntReg(3), isa.IntReg(3), isa.IntReg(3))
	b.Label("join")
	b.Addi(isa.IntReg(1), isa.IntReg(1), 1)
	b.Bne(isa.IntReg(1), isa.IntReg(2), "loop")
	b.Label("done")
	b.Halt()
	gateEdge(t, b.MustBuild())
}

// TestEdgeNeverTakenBranch: the body branch never fires; only the
// backedge is taken.
func TestEdgeNeverTakenBranch(t *testing.T) {
	b := prog.NewBuilder("edge-never-taken")
	b.Label("entry")
	b.Li(isa.IntReg(1), 0)
	b.Li(isa.IntReg(2), 400)
	b.Li(isa.IntReg(4), 1)
	b.Label("loop")
	b.Add(isa.IntReg(3), isa.IntReg(1), isa.IntReg(2))
	b.Bne(isa.IntReg(0), isa.IntReg(0), "skip") // never taken
	b.Label("fall")
	b.Xor(isa.IntReg(3), isa.IntReg(3), isa.IntReg(4))
	b.Label("skip")
	b.Addi(isa.IntReg(1), isa.IntReg(1), 1)
	b.Bne(isa.IntReg(1), isa.IntReg(2), "loop")
	b.Label("done")
	b.Halt()
	gateEdge(t, b.MustBuild())
}
