package supervise

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfclone/internal/faultinject"
)

func TestCauseNilWhileLive(t *testing.T) {
	if err := Cause(context.Background()); err != nil {
		t.Fatalf("Cause(live ctx) = %v, want nil", err)
	}
}

func TestCausePrefersRecordedCause(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(ErrStuck)
	if err := Cause(ctx); !errors.Is(err, ErrStuck) {
		t.Fatalf("Cause = %v, want ErrStuck", err)
	}
}

func TestCauseFallsBackToPlainCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Cause(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Cause = %v, want context.Canceled", err)
	}
}

func TestStageContextZeroTimeoutIsNoop(t *testing.T) {
	ctx := context.Background()
	sctx, cancel := StageContext(ctx, "fig4", 0)
	defer cancel()
	if sctx != ctx {
		t.Fatal("StageContext with zero timeout should return ctx unchanged")
	}
}

func TestStageContextExpiryIsErrDeadline(t *testing.T) {
	sctx, cancel := StageContext(context.Background(), "fig4", time.Nanosecond)
	defer cancel()
	<-sctx.Done()
	err := Cause(sctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Cause = %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), "fig4") {
		t.Fatalf("cause %q should name the stage", err)
	}
	if faultinject.IsTransient(err) {
		t.Fatal("a deadline must not be transient (retrying in a closed window is useless)")
	}
}

func TestRunCountsOK(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	if err := s.Run(context.Background(), Spec{Name: "t"}, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.OK != 1 || c.Recovered != 0 || c.Retried != 0 || c.Failed != 0 {
		t.Fatalf("counts = %+v, want 1 ok only", c)
	}
}

func TestRunRetriesTransientAndLogsRecovered(t *testing.T) {
	var log bytes.Buffer
	s := New(Options{Log: &log})
	calls := 0
	err := s.Run(context.Background(), Spec{Name: "fig4/crc32", Retries: 2}, func(ctx context.Context) error {
		calls++
		if a := AttemptFrom(ctx); a != calls {
			t.Fatalf("AttemptFrom = %d on call %d", a, calls)
		}
		if calls < 3 {
			return faultinject.MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	c := s.Counts()
	if c.Recovered != 1 || c.Retried != 2 || c.OK != 0 || c.Failed != 0 {
		t.Fatalf("counts = %+v, want 1 recovered / 2 retried", c)
	}
	if !strings.Contains(log.String(), `supervise: RECOVERED task "fig4/crc32" on attempt 3/3`) {
		t.Fatalf("log missing RECOVERED line:\n%s", log.String())
	}
}

func TestRunDoesNotRetryNonTransient(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	calls := 0
	fatal := errors.New("bad input")
	err := s.Run(context.Background(), Spec{Name: "t", Retries: 3}, func(context.Context) error {
		calls++
		return fatal
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (non-transient must not retry)", calls)
	}
	if !errors.Is(err, fatal) {
		t.Fatalf("err = %v, want wrapped %v", err, fatal)
	}
	if c := s.Counts(); c.Failed != 1 {
		t.Fatalf("counts = %+v, want 1 failed", c)
	}
}

func TestRunExhaustedRetriesFails(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	calls := 0
	err := s.Run(context.Background(), Spec{Name: "t", Retries: 1}, func(context.Context) error {
		calls++
		return faultinject.MarkTransient(errors.New("always"))
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if err == nil || !strings.Contains(err.Error(), `task "t" failed after 2 attempt(s)`) {
		t.Fatalf("err = %v, want failure wrapper", err)
	}
	if c := s.Counts(); c.Failed != 1 || c.Retried != 1 {
		t.Fatalf("counts = %+v, want 1 failed / 1 retried", c)
	}
}

func TestRunPropagatesCallerCancelUntouched(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Run(ctx, Spec{Name: "t", Retries: 3}, func(context.Context) error {
		t.Fatal("fn should not run under a dead context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := s.Counts(); c.Failed != 0 {
		t.Fatalf("counts = %+v: a caller cancel is not a task failure", c)
	}
}

func TestRunRecoversPanicAndRetries(t *testing.T) {
	var log bytes.Buffer
	s := New(Options{Log: &log})
	calls := 0
	err := s.Run(context.Background(), Spec{Name: "fig6/sha", Retries: 1}, func(context.Context) error {
		calls++
		if calls == 1 {
			panic("index out of range [simulated]")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (panic then success)", calls)
	}
	if !strings.Contains(log.String(), "supervise: RECOVERED panic") {
		t.Fatalf("log missing panic line:\n%s", log.String())
	}
	if c := s.Counts(); c.Recovered != 1 {
		t.Fatalf("counts = %+v, want 1 recovered", c)
	}
}

func TestPanicErrorKeepsClassAndUnwraps(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	sentinel := errors.New("poisoned cell")
	err := s.Run(context.Background(), Spec{Name: "t"}, func(context.Context) error {
		panic(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v should unwrap to the panic value", err)
	}
	if !faultinject.IsTransient(err) {
		t.Fatalf("err = %v, want a transient error (a recovered panic retries)", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Task != "t" || len(pe.Stack) == 0 {
		t.Fatalf("err = %#v, want *PanicError with task and stack", err)
	}
}

func TestWatchdogKillsQuietTaskAndRetries(t *testing.T) {
	var log bytes.Buffer
	s := New(Options{Log: &log})
	calls := 0
	err := s.Run(context.Background(), Spec{Name: "fig4/crc32", Retries: 1, Quiet: 50 * time.Millisecond},
		func(ctx context.Context) error {
			calls++
			if calls == 1 {
				// First attempt wedges: no Beat, just wait for the kill.
				<-ctx.Done()
				return Cause(ctx)
			}
			Beat(ctx)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (stuck kill then clean retry)", calls)
	}
	c := s.Counts()
	if c.StuckKilled != 1 || c.Recovered != 1 {
		t.Fatalf("counts = %+v, want 1 stuck-killed / 1 recovered", c)
	}
	out := log.String()
	if !strings.Contains(out, "supervise: STUCK") || !strings.Contains(out, "supervise: RECOVERED") {
		t.Fatalf("log missing STUCK/RECOVERED lines:\n%s", out)
	}
}

func TestWatchdogSparedByHeartbeats(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	err := s.Run(context.Background(), Spec{Name: "t", Quiet: 80 * time.Millisecond}, func(ctx context.Context) error {
		// Run well past the quiet budget, ticking frequently: the
		// watchdog must not fire on a live worker.
		deadline := time.Now().Add(240 * time.Millisecond)
		for time.Now().Before(deadline) {
			Beat(ctx)
			time.Sleep(5 * time.Millisecond)
		}
		return Cause(ctx)
	})
	if err != nil {
		t.Fatalf("live task was killed: %v", err)
	}
	if c := s.Counts(); c.StuckKilled != 0 {
		t.Fatalf("counts = %+v, want 0 stuck-killed", c)
	}
}

func TestWatchdogErrorIsErrStuckEvenWhenCalleeMangles(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	err := s.Run(context.Background(), Spec{Name: "t", Quiet: 30 * time.Millisecond},
		func(ctx context.Context) error {
			<-ctx.Done()
			// A callee that loses the cause and reports the bare ctx error.
			return ctx.Err()
		})
	if err == nil || !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck (normalized from bare context error)", err)
	}
}

func TestWedgeHookRecoversEndToEnd(t *testing.T) {
	var log bytes.Buffer
	s := New(Options{Log: &log, Wedge: "fig4/crc32"})
	var ran atomic.Int32
	err := s.Run(context.Background(), Spec{Name: "fig4/crc32", Retries: 1, Quiet: 50 * time.Millisecond},
		func(ctx context.Context) error {
			ran.Add(1)
			Beat(ctx)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1 (attempt 1 replaced by the wedge)", ran.Load())
	}
	out := log.String()
	for _, want := range []string{"supervise: WEDGE", "supervise: STUCK", "supervise: RECOVERED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
}

func TestWedgeHookWithoutWatchdogFailsFast(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}, Wedge: "t"})
	done := make(chan error, 1)
	go func() {
		done <- s.Run(context.Background(), Spec{Name: "t", Retries: 0}, func(context.Context) error { return nil })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStuck) {
			t.Fatalf("err = %v, want ErrStuck", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedge hook with no watchdog hung instead of failing")
	}
}

func TestSummaryFormat(t *testing.T) {
	s := New(Options{Log: &bytes.Buffer{}})
	for i := 0; i < 3; i++ {
		s.Run(context.Background(), Spec{Name: fmt.Sprintf("t%d", i)}, func(context.Context) error { return nil })
	}
	want := "supervise: tasks 3 ok / 0 recovered / 0 retried / 0 stuck-killed / 0 failed"
	if got := s.Summary(); got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
}

func TestBeatNoopOnUnsupervisedContext(t *testing.T) {
	Beat(context.Background()) // must not panic
	if TickerFrom(context.Background()) != nil {
		t.Fatal("TickerFrom(unsupervised) should be nil")
	}
}

// TestSummaryCountersConcurrent pins the exact counter totals when many
// goroutines share one Supervisor (the daemon's worker pool does). Each
// goroutine runs a fixed mix of outcomes; run under -race this also
// proves the counters and the shared log writer are data-race free.
func TestSummaryCountersConcurrent(t *testing.T) {
	const (
		goroutines = 8
		okRuns     = 3 // succeed first attempt
		recRuns    = 2 // fail transiently once, then succeed
		failRuns   = 2 // fail non-transiently (no retry)
		panicRuns  = 1 // panic once, then succeed
	)
	s := New(Options{Log: io.Discard})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < okRuns; i++ {
				if err := s.Run(ctx, Spec{Name: fmt.Sprintf("ok/%d-%d", g, i)}, func(context.Context) error { return nil }); err != nil {
					t.Errorf("ok run: %v", err)
				}
			}
			for i := 0; i < recRuns; i++ {
				first := true
				err := s.Run(ctx, Spec{Name: fmt.Sprintf("rec/%d-%d", g, i), Retries: 1}, func(context.Context) error {
					if first {
						first = false
						return faultinject.MarkTransient(errors.New("flaky"))
					}
					return nil
				})
				if err != nil {
					t.Errorf("recover run: %v", err)
				}
			}
			for i := 0; i < failRuns; i++ {
				err := s.Run(ctx, Spec{Name: fmt.Sprintf("fail/%d-%d", g, i), Retries: 2}, func(context.Context) error {
					return errors.New("hard failure")
				})
				if err == nil {
					t.Error("hard failure must surface")
				}
			}
			for i := 0; i < panicRuns; i++ {
				first := true
				err := s.Run(ctx, Spec{Name: fmt.Sprintf("panic/%d-%d", g, i), Retries: 1}, func(context.Context) error {
					if first {
						first = false
						panic("boom")
					}
					return nil
				})
				if err != nil {
					t.Errorf("panic-then-ok run: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	// Non-transient failures never retry, so Retried counts exactly one
	// extra attempt per recovered and per panicking task.
	want := Counts{
		OK:        goroutines * okRuns,
		Recovered: goroutines * (recRuns + panicRuns),
		Retried:   goroutines * (recRuns + panicRuns),
		Failed:    goroutines * failRuns,
	}
	if got := s.Counts(); got != want {
		t.Fatalf("Counts = %+v, want %+v", got, want)
	}
	wantLine := fmt.Sprintf("supervise: tasks %d ok / %d recovered / %d retried / %d stuck-killed / %d failed",
		want.OK, want.Recovered, want.Retried, want.StuckKilled, want.Failed)
	if got := s.Summary(); got != wantLine {
		t.Fatalf("Summary = %q, want %q", got, wantLine)
	}
}
