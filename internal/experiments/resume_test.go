package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"perfclone/internal/store"
)

// resumeOpts keeps the interrupt/resume test fast: two workloads, short
// runs. Parallel stays off so the cancellation point is deterministic.
func resumeOpts(st *store.Store) Options {
	return Options{
		Workloads:    []string{"crc32", "qsort"},
		ProfileInsts: 250_000,
		TimingWarmup: 50_000,
		TimingInsts:  150_000,
		Store:        st,
	}
}

// renderRun renders the Fig4/Fig5/Fig6and7 pipeline to text — the same
// printers cmd/experiments uses — so two runs can be compared byte for
// byte.
func renderRun(ctx context.Context, opts Options) (string, error) {
	pairs, err := PrepareContext(ctx, opts)
	if err != nil {
		return "", err
	}
	fig4, err := Fig4Context(ctx, pairs, opts)
	if err != nil {
		return "", err
	}
	pts, err := Fig5(fig4)
	if err != nil {
		return "", err
	}
	rows, err := Fig6and7Context(ctx, pairs, opts)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	PrintFig4(&buf, fig4)
	PrintFig5(&buf, pts)
	PrintFig6and7(&buf, rows)
	return buf.String(), nil
}

// TestResumeByteIdentical pins the store's core guarantee: a run killed
// mid-stage and resumed from its checkpoints renders byte-identical
// output to an uninterrupted run, and the resumed run's Prepare loads
// every trace from the store instead of re-executing.
func TestResumeByteIdentical(t *testing.T) {
	// Reference: one uninterrupted run against its own store.
	stA, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderRun(context.Background(), resumeOpts(stA))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the first fig4 cell finishes.
	stB, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := resumeOpts(stB)
	opts.Progress = func(ev Event) {
		if ev.Stage == "fig4" && ev.Cell != "" {
			once.Do(cancel)
		}
	}
	if _, err := renderRun(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	interrupted := stB.Counters()
	if interrupted.TraceMisses == 0 {
		t.Fatal("interrupted run should have captured (missed) traces")
	}

	// Resume against the same store: all artifacts load, checkpointed
	// cells are reused, output matches the reference byte for byte.
	opts = resumeOpts(stB)
	opts.Resume = true
	var cachedCells int
	opts.Progress = func(ev Event) {
		if ev.Cell != "" && ev.Cached {
			cachedCells++
		}
	}
	got, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if cachedCells == 0 {
		t.Fatal("resumed run reused no checkpointed cells")
	}

	resumed := stB.Counters()
	if resumed.TraceMisses != interrupted.TraceMisses {
		t.Fatalf("resumed Prepare re-captured traces: %d misses before, %d after",
			interrupted.TraceMisses, resumed.TraceMisses)
	}
	wantHits := interrupted.TraceHits + uint64(2*len(opts.Workloads))
	if resumed.TraceHits != wantHits {
		t.Fatalf("resumed Prepare trace hits = %d, want %d (real+clone per workload)",
			resumed.TraceHits, wantHits)
	}
	if resumed.ProfileMisses != interrupted.ProfileMisses {
		t.Fatal("resumed Prepare re-collected profiles")
	}
}

// renderTable3 renders the Table 3 stage (per-workload rows plus
// summaries) to text for byte-for-byte comparison across runs.
func renderTable3(ctx context.Context, opts Options) (string, error) {
	pairs, err := PrepareContext(ctx, opts)
	if err != nil {
		return "", err
	}
	rows, sums, err := Table3Context(ctx, pairs, opts)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	PrintTable3(&buf, sums)
	PrintFig8and9(&buf, rows)
	return buf.String(), nil
}

// TestResumeParallelTable3ByteIdentical interrupts a fully parallel
// Table 3 run mid-stage — outer forEach workers iterating workloads,
// inner fused-replay workers striping the configs — and resumes it with
// a different worker split. Both the interrupted run's checkpoints and
// the resumed run's fresh cells must compose to output byte-identical
// to a serial uninterrupted reference: the parallel walk never
// checkpoints a torn cell (workers drain before stageCell records), and
// the worker split never leaks into results.
func TestResumeParallelTable3ByteIdentical(t *testing.T) {
	// Reference: serial, uninterrupted.
	stA, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderTable3(context.Background(), resumeOpts(stA))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted parallel run: cancel as soon as the first table3 cell
	// lands, with 4 workers split across 2 workloads × 6 configs.
	stB, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := resumeOpts(stB)
	opts.Parallel = true
	opts.Workers = 4
	opts.Progress = func(ev Event) {
		if ev.Stage == "table3" && ev.Cell != "" {
			once.Do(cancel)
		}
	}
	if _, err := renderTable3(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}

	// Resume with a different split (3 workers) — checkpointed cells from
	// the 4-worker run must splice seamlessly with recomputed ones.
	opts = resumeOpts(stB)
	opts.Parallel = true
	opts.Workers = 3
	opts.Resume = true
	var cachedCells int
	opts.Progress = func(ev Event) {
		if ev.Stage == "table3" && ev.Cell != "" && ev.Cached {
			cachedCells++
		}
	}
	got, err := renderTable3(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel interrupt+resume differs from serial run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if cachedCells == 0 {
		t.Fatal("resumed run reused no checkpointed table3 cells")
	}
}

// runOpts keeps the per-run resume tests fast: two workloads, about
// 100k instructions per timing run.
func runOpts(st *store.Store) Options {
	return Options{
		Workloads:    []string{"crc32", "qsort"},
		ProfileInsts: 100_000,
		TimingInsts:  100_000,
		Parallel:     true,
		Store:        st,
		Log:          io.Discard,
	}
}

// TestResumeEveryRun runs each distinct registry run cold against a
// store and then again with Resume: the resumed run must print
// byte-identical output and report every cell — Prepare's and every
// grid cell — as cached, none recomputed. Runs that print the same
// blocks as an earlier run (fig6/fig7/fig6and7, fig8/fig9) are skipped
// after their cold run.
func TestResumeEveryRun(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seen := make(map[string]string) // cold output -> the run that printed it first
	for _, name := range RunNames() {
		t.Run(name, func(t *testing.T) {
			var cold bytes.Buffer
			if err := Run(ctx, name, runOpts(st), &cold); err != nil {
				t.Fatal(err)
			}
			if first, ok := seen[cold.String()]; ok {
				t.Skipf("prints the same blocks as %s", first)
			}
			seen[cold.String()] = name

			opts := runOpts(st)
			opts.Resume = true
			var cells int
			opts.Progress = func(ev Event) {
				if ev.Cell == "" {
					return
				}
				cells++
				if !ev.Cached {
					t.Errorf("%s/%s recomputed on resume", ev.Stage, ev.Cell)
				}
			}
			var warm bytes.Buffer
			if err := Run(ctx, name, opts, &warm); err != nil {
				t.Fatal(err)
			}
			if warm.String() != cold.String() {
				t.Fatalf("resumed output differs from the cold run:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.String(), warm.String())
			}
			if cells == 0 {
				t.Fatal("resumed run reported no cells")
			}
		})
	}
}

// TestExtWorkerCountsByteIdentical: the extension studies print the
// same bytes at 1 and 3 workers, whatever the outer×inner split.
func TestExtWorkerCountsByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]bytes.Buffer
	for k, workers := range []int{1, 3} {
		opts := runOpts(st)
		opts.Workers = workers
		if err := Run(context.Background(), "ext", opts, &outs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Fatalf("ext output differs between 1 and 3 workers:\n--- 1 ---\n%s\n--- 3 ---\n%s", outs[0].String(), outs[1].String())
	}
}

// TestPrepareWritesNoCheckpoint: Prepare's cells are the store's own
// artifacts, so a store-backed Prepare leaves no prepare checkpoint
// behind. Its progress events stay: a cold Prepare computes every cell,
// a warm one reports every cell cached.
func TestPrepareWritesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		opts := runOpts(st)
		var cells, cached, summaries int
		opts.Progress = func(ev Event) {
			if ev.Stage != "prepare" {
				t.Errorf("event from stage %q", ev.Stage)
			}
			switch {
			case ev.Cell == "":
				summaries++
			case ev.Cached:
				cached++
				fallthrough
			default:
				cells++
			}
		}
		if _, err := PrepareContext(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		_, err := os.Stat(filepath.Join(dir, "checkpoints", "prepare.jsonl"))
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("warm=%v: prepare.jsonl: stat err %v, want it absent", warm, err)
		}
		want := 0
		if warm {
			want = len(opts.Workloads)
		}
		if cells != len(opts.Workloads) || cached != want || summaries != 1 {
			t.Errorf("warm=%v: %d cells, %d cached, %d summaries; want %d, %d, 1",
				warm, cells, cached, summaries, len(opts.Workloads), want)
		}
	}
}

// TestSecondRunAllCached re-runs the pipeline against a warm store
// without Resume: traces and profiles still come from the store (the
// artifact cache is independent of checkpoint reuse).
func TestSecondRunAllCached(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := resumeOpts(st)
	first, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := st.Counters()
	second, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("second run against the warm store rendered different output")
	}
	c := st.Counters()
	if c.TraceMisses != afterFirst.TraceMisses || c.ProfileMisses != afterFirst.ProfileMisses {
		t.Fatalf("second run missed the store: %+v (after first run: %+v)", c, afterFirst)
	}
	if c.TraceHits <= afterFirst.TraceHits {
		t.Fatal("second run loaded no traces from the store")
	}
}

// TestCancelledContextErrors pins that an already-cancelled context makes
// every driver return an error rather than silent partial results.
func TestCancelledContextErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := resumeOpts(nil)
	if _, err := PrepareContext(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrepareContext: want context.Canceled, got %v", err)
	}
	pairs := preparePairs(t)
	if _, err := Fig4Context(ctx, pairs, smallOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig4Context: want context.Canceled, got %v", err)
	}
	if _, err := Fig6and7Context(ctx, pairs, smallOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig6and7Context: want context.Canceled, got %v", err)
	}
	if _, _, err := Table3Context(ctx, pairs, smallOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Table3Context: want context.Canceled, got %v", err)
	}
}

// TestResumeRequiresStoreIsHarmless documents that Resume without a
// Store simply recomputes (no checkpoints exist to reuse); the flag-level
// guard lives in cmd/experiments.
func TestResumeRequiresStoreIsHarmless(t *testing.T) {
	opts := smallOpts()
	opts.Workloads = []string{"crc32"}
	opts.Resume = true
	pairs, err := PrepareContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] == nil {
		t.Fatal("Resume without Store must still prepare pairs")
	}
	if !strings.Contains(pairs[0].Name, "crc32") {
		t.Fatalf("unexpected pair %q", pairs[0].Name)
	}
}
