package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"perfclone/internal/store"
	"perfclone/internal/supervise"
)

// superOpts is resumeOpts shrunk further for the supervision tests: one
// workload pipeline is enough to exercise wedge/panic recovery, and
// serial execution keeps the injection points deterministic.
func superOpts() Options {
	return Options{
		Workloads:    []string{"crc32", "qsort"},
		ProfileInsts: 250_000,
		TimingWarmup: 50_000,
		TimingInsts:  150_000,
		Log:          io.Discard,
	}
}

// TestDeadlineCellNeverCheckpointed pins the deadline fence: a cell
// whose stage context dies mid-compute must NOT leave a valid-CRC
// checkpoint record, even when the compute path swallowed the
// cancellation and reported success — a recorded row must always
// describe a complete cell.
func TestDeadlineCellNeverCheckpointed(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := superOpts()
	opts.Store = st
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	_, err = runStage(ctx, opts, "deadfence", []string{"cell"}, func(context.Context, *cell, int) (int, error) {
		// The stage budget expires while the cell is running; this
		// compute path loses the cancellation and returns success anyway.
		cancel(supervise.ErrDeadline)
		return 42, nil
	})
	if !errors.Is(err, supervise.ErrDeadline) {
		t.Fatalf("runStage = %v, want the deadline cause", err)
	}
	// Reopen the checkpoint the way a resumed run would: the cell must
	// not be recorded.
	cp, err := st.OpenCheckpoint("deadfence", true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if _, ok := cp.Done("cell"); ok {
		t.Fatal("expired cell was checkpointed with a valid CRC")
	}
}

// TestStageTimeoutExpiresWithErrDeadline: a stage budget far smaller
// than the work cancels the whole stage with ErrDeadline as the cause,
// which survives to the caller for exit-code mapping (124, not 130).
func TestStageTimeoutExpiresWithErrDeadline(t *testing.T) {
	opts := superOpts()
	opts.StageTimeout = time.Millisecond
	_, err := PrepareContext(context.Background(), opts)
	if !errors.Is(err, supervise.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("a deadline expiry must not read as a user interrupt")
	}
}

// TestWedgedCellRecoversByteIdentical is the issue's acceptance
// scenario in-process: a deliberately wedged fig4 worker (test hook
// stops ticking heartbeats) is detected by the watchdog, killed, and
// retried — and the run's rendered output is byte-identical to an
// unsupervised clean run.
func TestWedgedCellRecoversByteIdentical(t *testing.T) {
	clean, err := renderRun(context.Background(), superOpts())
	if err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	opts := superOpts()
	opts.Log = &log
	opts.TaskRetries = 1
	// Generous quiet budget: the pipeline ticks at least every 64 Ki
	// instructions, far more often than 1s even under -race.
	opts.Watchdog = time.Second
	opts.Supervisor = supervise.New(supervise.Options{Log: &log, Wedge: "fig4/crc32"})
	wedged, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatalf("wedged run failed instead of recovering: %v", err)
	}
	if wedged != clean {
		t.Error("wedged-then-recovered run output differs from the clean run")
	}
	out := log.String()
	for _, want := range []string{"supervise: WEDGE", "supervise: STUCK", "supervise: RECOVERED"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	c := opts.Supervisor.Counts()
	if c.StuckKilled != 1 || c.Recovered != 1 {
		t.Errorf("counts = %+v, want exactly 1 stuck-killed / 1 recovered", c)
	}
}

// TestPanickedCellRecoversByteIdentical: a cell that panics on its
// first attempt is contained, logged, retried, and the rendered output
// matches a clean run.
func TestPanickedCellRecoversByteIdentical(t *testing.T) {
	clean, err := renderRun(context.Background(), superOpts())
	if err != nil {
		t.Fatal(err)
	}

	testCellHook = func(ctx context.Context, stage, cell string) {
		if stage == "fig6and7" && cell == "qsort" && supervise.AttemptFrom(ctx) == 1 {
			panic("poisoned cell [injected]")
		}
	}
	defer func() { testCellHook = nil }()

	var log bytes.Buffer
	opts := superOpts()
	opts.Log = &log
	opts.TaskRetries = 1
	opts.Supervisor = supervise.New(supervise.Options{Log: &log})
	got, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatalf("panicked run failed instead of recovering: %v", err)
	}
	if got != clean {
		t.Error("panic-recovered run output differs from the clean run")
	}
	if !strings.Contains(log.String(), "supervise: RECOVERED panic") {
		t.Errorf("log missing panic-recovery line:\n%s", log.String())
	}
}

// TestPanickedCellWithoutRetriesFails: with no retry budget the
// contained panic surfaces as a classified error, not a crash.
func TestPanickedCellWithoutRetriesFails(t *testing.T) {
	testCellHook = func(ctx context.Context, stage, cell string) {
		if stage == "prepare" && cell == "crc32" {
			panic("poisoned cell [injected]")
		}
	}
	defer func() { testCellHook = nil }()

	opts := superOpts()
	_, err := PrepareContext(context.Background(), opts)
	if err == nil {
		t.Fatal("run succeeded despite an unretried panic")
	}
	var pe *supervise.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError in the chain", err)
	}
	if pe.Task != "prepare/crc32" {
		t.Errorf("PanicError.Task = %q, want prepare/crc32", pe.Task)
	}
}

// TestWedgedRunWithStoreResumes: supervision composes with the durable
// store — a wedged-then-recovered checkpointed run leaves a checkpoint
// set a resumed run can replay to byte-identical output with zero
// recomputation.
func TestWedgedRunWithStoreResumes(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	opts := superOpts()
	opts.Store = st
	opts.Log = &log
	opts.TaskRetries = 1
	opts.Watchdog = time.Second
	opts.Supervisor = supervise.New(supervise.Options{Log: &log, Wedge: "fig4/qsort"})
	first, err := renderRun(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "supervise: RECOVERED") {
		t.Fatalf("wedge never engaged:\n%s", log.String())
	}

	resumed := opts
	resumed.Resume = true
	resumed.Supervisor = supervise.New(supervise.Options{Log: io.Discard})
	second, err := renderRun(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("resumed run differs from the wedged-then-recovered run")
	}
}
