package experiments

import (
	"context"
	"strings"
	"testing"

	"perfclone/internal/cache"
)

// smallOpts keeps experiment tests fast: three workloads, short runs.
func smallOpts() Options {
	return Options{
		Workloads:    []string{"crc32", "qsort", "fft"},
		ProfileInsts: 250_000,
		TimingWarmup: 50_000,
		TimingInsts:  150_000,
		Parallel:     true,
	}
}

func preparePairs(t *testing.T) []*Pair {
	t.Helper()
	pairs, err := Prepare(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestPrepare(t *testing.T) {
	pairs := preparePairs(t)
	if len(pairs) != 3 {
		t.Fatalf("want 3 pairs, got %d", len(pairs))
	}
	for _, pr := range pairs {
		if pr.Profile.TotalInsts == 0 {
			t.Errorf("%s: empty profile", pr.Name)
		}
		if pr.Clone == nil || len(pr.Clone.Program.Blocks) == 0 {
			t.Errorf("%s: no clone", pr.Name)
		}
	}
	if _, err := Prepare(Options{Workloads: []string{"nope"}}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFig3(t *testing.T) {
	rows := Fig3(preparePairs(t))
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Coverage < 0 || r.Coverage > 1 {
			t.Errorf("%s coverage %f out of range", r.Workload, r.Coverage)
		}
		if r.UniqueStreams <= 0 {
			t.Errorf("%s has no streams", r.Workload)
		}
	}
}

func TestFig4And5(t *testing.T) {
	opts := smallOpts()
	pairs := preparePairs(t)
	rows, err := Fig4Context(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.RealMPI) != 28 || len(r.CloneMPI) != 28 {
			t.Fatalf("%s: MPI vectors must cover the 28 configs", r.Workload)
		}
		if r.R < 0.5 {
			t.Errorf("%s: cache-tracking correlation %f suspiciously low", r.Workload, r.R)
		}
	}
	pts, err := Fig5(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 28 {
		t.Fatalf("Fig5 points: %d", len(pts))
	}
	if _, err := Fig5(nil); err == nil {
		t.Fatal("Fig5 over zero workloads must error, not divide by zero")
	}
	for _, p := range pts {
		if p.RealRank < 1 || p.RealRank > 28 || p.CloneRank < 1 || p.CloneRank > 28 {
			t.Errorf("rank out of range: %+v", p)
		}
	}
}

func TestFig6and7(t *testing.T) {
	opts := smallOpts()
	rows, err := Fig6and7Context(context.Background(), preparePairs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RealIPC <= 0 || r.CloneIPC <= 0 {
			t.Errorf("%s: zero IPC", r.Workload)
		}
		if r.RealPower <= 0 || r.ClonePower <= 0 {
			t.Errorf("%s: zero power", r.Workload)
		}
		if r.IPCErr > 0.5 {
			t.Errorf("%s: clone IPC error %f implausibly large", r.Workload, r.IPCErr)
		}
	}
}

func TestTable3AndFig8(t *testing.T) {
	opts := smallOpts()
	rows, sums, err := Table3Context(context.Background(), preparePairs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 5 {
		t.Fatalf("want 5 design changes, got %d", len(sums))
	}
	if len(rows) != 5*3 {
		t.Fatalf("want 15 rows, got %d", len(rows))
	}
	for _, s := range sums {
		if s.AvgRelErrIPC < 0 || s.AvgRelErrIPC > 1 {
			t.Errorf("%s: rel err %f out of range", s.Change, s.AvgRelErrIPC)
		}
	}
	// Doubling the width must speed up the real programs.
	for _, s := range sums {
		if s.Change == "double width" && s.RealSpeedup <= 1.05 {
			t.Errorf("double width speedup %f", s.RealSpeedup)
		}
		if s.Change == "not-taken predictor" && s.RealSpeedup >= 1.0 {
			t.Errorf("not-taken should slow programs down, got %fx", s.RealSpeedup)
		}
	}
	f89 := Fig8and9Rows(rows)
	if len(f89) != 3 {
		t.Fatalf("Fig8/9 rows: %d", len(f89))
	}
}

func TestCacheMPIReferenceConfigIsWorst(t *testing.T) {
	pairs := preparePairs(t)
	mpi, err := CacheMPI(context.Background(), pairs[0].RealTrace, cache.Sweep28(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	// The 256 B direct-mapped reference should have the most misses of
	// its size class and generally the most overall.
	for k := 1; k < len(mpi); k++ {
		if mpi[k] > mpi[0]*1.05 {
			t.Errorf("config %d MPI %f exceeds the 256B/1-way reference %f", k, mpi[k], mpi[0])
		}
	}
}

func TestReportPrinters(t *testing.T) {
	opts := smallOpts()
	pairs := preparePairs(t)
	var sb strings.Builder
	PrintFig3(&sb, Fig3(pairs))
	rows, err := Fig4Context(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig4(&sb, rows)
	pts, err := Fig5(rows)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig5(&sb, pts)
	base, err := Fig6and7Context(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig6and7(&sb, base)
	drows, sums, err := Table3Context(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable3(&sb, sums)
	PrintFig8and9(&sb, Fig8and9Rows(drows))
	out := sb.String()
	for _, want := range []string{"Figure 3", "Figure 4", "Figure 5", "Figures 6 & 7", "Table 3", "Figures 8 & 9", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	opts := smallOpts()
	opts.Workloads = []string{"crc32"}
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblationContext(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	r := rows[0]
	if r.CloneR < 0.5 {
		t.Errorf("clone cache correlation %f", r.CloneR)
	}
	if r.CloneMispredMAE < 0 || r.BaselineMispredMAE < 0 {
		t.Error("negative MAE")
	}
	var sb strings.Builder
	PrintAblation(&sb, rows)
	if !strings.Contains(sb.String(), "Ablation") {
		t.Error("ablation report empty")
	}
}

func TestDefaultWarmupNeverConsumesBudget(t *testing.T) {
	o := Options{TimingInsts: 150_000}.withDefaults()
	if o.TimingWarmup >= o.TimingInsts {
		t.Fatalf("defaulted warmup %d consumes the whole %d budget", o.TimingWarmup, o.TimingInsts)
	}
	// An explicit warmup is never second-guessed.
	o = Options{TimingInsts: 100_000, TimingWarmup: 100_000}.withDefaults()
	if o.TimingWarmup != 100_000 {
		t.Fatalf("explicit warmup changed to %d", o.TimingWarmup)
	}
}
