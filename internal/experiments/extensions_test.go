package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestPredictorSweep(t *testing.T) {
	opts := smallOpts()
	pairs := preparePairs(t)
	rows, err := PredictorSweepContext(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(extensionPredictors)*len(pairs) {
		t.Fatalf("rows: %d", len(rows))
	}
	// Per workload: not-taken must mispredict far more than GAp (loops
	// are taken), for both the real program and the clone.
	byKey := map[string]PredictorRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Predictor] = r
	}
	for _, pr := range pairs {
		gap := byKey[pr.Name+"/gap"]
		nt := byKey[pr.Name+"/not-taken"]
		if nt.RealMiss <= gap.RealMiss {
			t.Errorf("%s: real not-taken miss %f not above gap %f", pr.Name, nt.RealMiss, gap.RealMiss)
		}
		if nt.CloneMiss <= gap.CloneMiss {
			t.Errorf("%s: clone not-taken miss %f not above gap %f", pr.Name, nt.CloneMiss, gap.CloneMiss)
		}
		if nt.RealIPC >= gap.RealIPC {
			t.Errorf("%s: not-taken IPC %f not below gap %f", pr.Name, nt.RealIPC, gap.RealIPC)
		}
	}
	var sb strings.Builder
	PrintPredictorSweep(&sb, rows)
	if !strings.Contains(sb.String(), "not-taken") {
		t.Error("report incomplete")
	}
}

func TestL2Sweep(t *testing.T) {
	opts := smallOpts()
	pairs := preparePairs(t)
	rows, err := L2SweepContext(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(l2Sizes)*len(pairs) {
		t.Fatalf("rows: %d", len(rows))
	}
	// L2 miss rate must not increase with L2 size for any workload.
	byWorkload := map[string][]L2Row{}
	for _, r := range rows {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for name, series := range byWorkload {
		for i := 1; i < len(series); i++ {
			if series[i].RealMiss > series[i-1].RealMiss+0.02 {
				t.Errorf("%s: real L2 miss grew with size: %v", name, series)
			}
		}
	}
	var sb strings.Builder
	PrintL2Sweep(&sb, rows)
	if !strings.Contains(sb.String(), "L2") {
		t.Error("report incomplete")
	}
}

func TestStatsimComparison(t *testing.T) {
	opts := smallOpts()
	pairs := preparePairs(t)
	rows, err := StatsimComparisonContext(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(pairs) {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.DetailedIPC <= 0 || r.StatsimIPC <= 0 || r.CloneIPC <= 0 {
			t.Errorf("%s: zero IPC", r.Workload)
		}
		if r.StatsimErr > 0.4 {
			t.Errorf("%s: statistical estimate err %.1f%%", r.Workload, 100*r.StatsimErr)
		}
	}
	var sb strings.Builder
	PrintStatsimComparison(&sb, rows)
	if !strings.Contains(sb.String(), "statsim") {
		t.Error("report incomplete")
	}
}

func TestInputSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{
		ProfileInsts: 300_000,
		TimingWarmup: 50_000,
		TimingInsts:  200_000,
		Parallel:     true,
	}
	rows, err := InputSensitivityContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.RealSmallIPC <= 0 || r.RealLargeIPC <= 0 || r.CloneIPC <= 0 {
			t.Errorf("%s: zero IPC in %+v", r.Workload, r)
		}
	}
	var sb strings.Builder
	PrintInputSensitivity(&sb, rows)
	if !strings.Contains(sb.String(), "assimilation") {
		t.Error("report incomplete")
	}
}
