package workloads

import (
	"testing"

	"perfclone/internal/funcsim"
)

// TestAllWorkloadsHalt executes every registered kernel to completion and
// checks the dynamic instruction count lands in a plausible band: big
// enough to be a meaningful benchmark, small enough to simulate quickly.
func TestAllWorkloadsHalt(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Build()
			m, err := funcsim.New(p)
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			res, err := m.RunColumns(funcsim.Limits{MaxInsts: 50_000_000}, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Halted {
				t.Fatalf("did not halt within %d insts", 50_000_000)
			}
			if res.Insts < 50_000 {
				t.Errorf("only %d dynamic insts; too small to be representative", res.Insts)
			}
			if res.Insts > 20_000_000 {
				t.Errorf("%d dynamic insts; too slow for the experiment harness", res.Insts)
			}
			t.Logf("%s: %d dynamic insts, %d static, %d blocks",
				w.Name, res.Insts, p.NumStaticInsts(), len(p.Blocks))
		})
	}
}

// TestWorkloadDeterminism re-builds and re-runs a kernel and checks the
// dynamic instruction count and result value are identical: profiles must
// be stable across runs.
func TestWorkloadDeterminism(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r1, v1 := runOnce(t, w)
			r2, v2 := runOnce(t, w)
			if r1 != r2 {
				t.Errorf("instruction counts differ: %d vs %d", r1, r2)
			}
			if v1 != v2 {
				t.Errorf("results differ: %d vs %d", v1, v2)
			}
		})
	}
}

func runOnce(t *testing.T, w Workload) (uint64, int64) {
	t.Helper()
	p := w.Build()
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunColumns(funcsim.Limits{MaxInsts: 50_000_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	v, err := ResultValue(p, m)
	if err != nil {
		t.Fatal(err)
	}
	return res.Insts, v
}
