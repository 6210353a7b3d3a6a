package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock drives the retry loop's sleep seam without wall time: each
// "sleep" advances a virtual clock and, once it crosses the deadline,
// cancels the context with context.DeadlineExceeded — exactly what a
// real timer-backed context would have done mid-backoff.
type fakeClock struct {
	now      time.Duration
	deadline time.Duration
	cancel   context.CancelCauseFunc
	sleeps   []time.Duration
}

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	c.sleeps = append(c.sleeps, d)
	// Full jitter can draw a zero sleep; a real clock still advances, so
	// the fake one ticks at least a nanosecond per wait.
	c.now += d + 1
	if c.deadline > 0 && c.now >= c.deadline && c.cancel != nil {
		c.cancel(context.DeadlineExceeded)
	}
	return ctxCause(ctx)
}

// TestRetryContextDeadline is the deadline-interaction table: a retry
// loop whose context dies must stop immediately — zero further sleeps,
// zero further op calls — instead of sleeping through the remaining
// backoff.
func TestRetryContextDeadline(t *testing.T) {
	transient := MarkTransient(errors.New("transient"))
	cases := []struct {
		name string
		// deadline in fake time; 0 = never expires.
		deadline time.Duration
		// preCancel kills the context before the first attempt.
		preCancel  bool
		wantOps    int
		wantSleeps int
		// wantCause is the sentinel the returned error must carry;
		// nil means the loop ran to exhaustion instead.
		wantCause error
	}{
		{
			name:       "no deadline runs to exhaustion",
			wantOps:    3,
			wantSleeps: 2,
		},
		{
			name:       "already expired: zero sleeps, zero ops, bare cause",
			preCancel:  true,
			wantOps:    0,
			wantSleeps: 0,
			wantCause:  context.DeadlineExceeded,
		},
		{
			name: "expires during first backoff: one sleep, one op, no second op",
			// The base delay is 1ms and the clock advances by the drawn jitter
			// (<= delay), so any positive deadline at or below the first
			// sleep's span trips during that sleep. Use the smallest.
			deadline:   time.Nanosecond,
			wantOps:    1,
			wantSleeps: 1,
			wantCause:  context.DeadlineExceeded,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			clk := &fakeClock{deadline: tc.deadline, cancel: cancel}
			if tc.preCancel {
				cancel(context.DeadlineExceeded)
			}
			ops := 0
			err := retry(ctx, 3, clk.sleep, func() error {
				ops++
				return transient
			})
			if ops != tc.wantOps {
				t.Fatalf("ops = %d, want %d", ops, tc.wantOps)
			}
			if len(clk.sleeps) != tc.wantSleeps {
				t.Fatalf("sleeps = %d (%v), want %d", len(clk.sleeps), clk.sleeps, tc.wantSleeps)
			}
			if tc.wantCause != nil {
				if !errors.Is(err, tc.wantCause) {
					t.Fatalf("err = %v, want cause %v", err, tc.wantCause)
				}
			} else if err == nil || !errors.Is(err, transient) {
				t.Fatalf("err = %v, want exhausted transient", err)
			}
		})
	}
}

// TestRetryContextPreCancelReturnsBareCause pins the identity invariant
// exit-code mapping relies on: a loop abandoned before any attempt
// returns the cause itself, not a wrapper.
func TestRetryContextPreCancelReturnsBareCause(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RetryContext(ctx, 3, func() error {
		t.Fatal("op must not run")
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v (%T), want bare context.Canceled", err, err)
	}
}

// TestRetryContextJoinsCauseAndLastError checks the mid-loop abandon
// wrapper: both the cancellation cause and the last attempt's error
// must be reachable with errors.Is.
func TestRetryContextJoinsCauseAndLastError(t *testing.T) {
	opErr := MarkTransient(errors.New("disk hiccup"))
	stuck := errors.New("watchdog says stuck")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	clk := &fakeClock{deadline: time.Nanosecond, cancel: func(error) { cancel(stuck) }}
	err := retry(ctx, 3, clk.sleep, func() error { return opErr })
	if !errors.Is(err, stuck) || !errors.Is(err, opErr) {
		t.Fatalf("err = %v, want both the cause and the op error reachable", err)
	}
}

// TestRetryContextRealSleepCutShort exercises the timer path: a context
// that expires during a long backoff returns promptly instead of serving
// the full delay.
func TestRetryContextRealSleepCutShort(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	long := func(ctx context.Context, _ time.Duration) error { return sleep(ctx, 10*time.Second) }
	err := retry(ctx, 2, long, func() error { return MarkTransient(errors.New("transient")) })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry slept %v through an expired context", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
