package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// The retry policy for transient failures: at most retryAttempts tries.
// The wait before the second try is drawn uniformly from
// [0, retryBaseDelay] ("full jitter", so concurrent retriers don't
// stampede in lockstep), and each later wait's ceiling doubles up to
// retryMaxDelay: worst case ~15ms of backoff.
const (
	retryAttempts  = 5
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 100 * time.Millisecond
)

// Retry runs op until it succeeds, fails with a non-transient error, or
// exhausts the policy's attempts. The returned error keeps its class, so
// an exhausted transient failure still reports IsTransient (callers
// decide whether persistence upgrades it to fatal).
func Retry(op func() error) error {
	return RetryContext(context.Background(), 0, op)
}

// RetryContext is Retry with at most attempts tries (attempts <= 0
// means the policy's default), bounded by ctx: the loop checks the
// context before every attempt and every backoff sleep, and a sleep in
// progress is cut short the moment the context dies — a task whose
// deadline has already expired stops immediately instead of sleeping
// through the remaining backoff. When the loop is abandoned mid-retry,
// the returned error joins the context's cancellation cause
// (context.Cause, so a watchdog's sentinel survives) with the last
// attempt's error; callers can errors.Is against either.
func RetryContext(ctx context.Context, attempts int, op func() error) error {
	return retry(ctx, attempts, sleep, op)
}

// retry is RetryContext with its clock seam: wait sleeps out one backoff
// and reports the context's cause if the context died meanwhile.
func retry(ctx context.Context, attempts int, wait func(context.Context, time.Duration) error, op func() error) error {
	if attempts <= 0 {
		attempts = retryAttempts
	}
	delay := retryBaseDelay
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if cerr := ctxCause(ctx); cerr != nil {
			return abandoned(attempt, cerr, err)
		}
		if attempt > 0 {
			if serr := wait(ctx, time.Duration(rand.Int64N(int64(delay)+1))); serr != nil {
				return abandoned(attempt, serr, err)
			}
			delay = min(2*delay, retryMaxDelay)
		}
		err = op()
		if err == nil || !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("faultinject: %d attempts exhausted: %w", attempts, err)
}

// abandoned reports a retry loop cut short by its context. Before the
// first attempt there is no op error to join, so the cause propagates
// bare (preserving the exact context.Canceled identity ^C handling
// relies on).
func abandoned(attempts int, cause, last error) error {
	if last == nil {
		return cause
	}
	return fmt.Errorf("faultinject: retry abandoned after %d attempt(s): %w", attempts, errors.Join(cause, last))
}

// sleep waits d or until ctx dies, whichever comes first, returning the
// context's cause when it cut the wait short.
func sleep(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctxCause(ctx)
	case <-t.C:
		return nil
	}
}

// ctxCause is ctx.Err() upgraded to the recorded cancellation cause.
func ctxCause(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}
