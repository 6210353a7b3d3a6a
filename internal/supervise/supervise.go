// Package supervise is the task-supervision substrate underneath the
// experiment pipeline: every grid cell, prepare step, and clone
// generation runs as a supervised task with a deadline, panic
// containment, a stuck-worker watchdog, and bounded retries.
//
// The model (DESIGN.md §11) has three layers:
//
//   - Deadlines. A stage context carries a wall-clock budget
//     (StageContext); expiry cancels the whole stage with ErrDeadline as
//     its cause, and every hot loop in the pipeline polls the context and
//     returns that cause, so callers can tell a budget overrun (exit 124)
//     from a user interrupt (exit 130).
//
//   - Panic containment. A panic inside a supervised task is recovered,
//     converted into a *PanicError marked transient, logged, and
//     retried like any other transient failure — one poisoned cell
//     cannot take down a 23-workload run.
//
//   - Heartbeats. Each running attempt owns a heartbeat that the
//     pipeline's hot loops tick through the task's context (Beat); a
//     watchdog goroutine declares the attempt stuck after Spec.Quiet of
//     silence, cancels it with ErrStuck as the cause, and the retry loop
//     starts a fresh attempt under faultinject backoff.
//
// Outcomes are counted per Supervisor and summarized in one greppable
// line (Summary) for the run harness — and eventually the perfcloned
// control plane — to scrape.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"perfclone/internal/faultinject"
)

// ErrStuck is the cancellation cause a watchdog records when it kills a
// wedged attempt, so downstream code — the trace walks, the retry loop,
// exit-code mapping — can distinguish "a task stopped ticking" from a
// user ^C or a deadline. It is classified transient: killing and
// re-running a stuck task is exactly what retries are for.
var ErrStuck = faultinject.MarkTransient(errors.New("supervise: task stuck (heartbeat quiet period exceeded)"))

// ErrDeadline is the cancellation cause of a stage whose wall-clock
// budget expired. It is deliberately not transient: retrying inside a
// window that has already closed only burns more of it.
var ErrDeadline = errors.New("supervise: stage deadline exceeded")

// PanicError is a worker panic converted into an error by the recovery
// layer. It unwraps to the panic value when that value was itself an
// error, so sentinel checks see through the containment.
type PanicError struct {
	Task    string
	Attempt int
	Value   any
	Stack   []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: panic in task %q (attempt %d): %v", e.Task, e.Attempt, e.Value)
}

func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Cause reports why ctx ended: the recorded cancellation cause when one
// exists (ErrStuck from a watchdog, an ErrDeadline-wrapped stage budget,
// a caller's sentinel), falling back to ctx.Err(). It returns nil while
// ctx is live, so hot loops can use it directly as their poll.
func Cause(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// StageContext bounds one experiment stage: a positive timeout derives a
// context that expires with ErrDeadline (wrapped with the stage name and
// budget) as its cause; zero or negative returns ctx unchanged. Callers
// must call the returned CancelFunc when the stage ends.
func StageContext(ctx context.Context, name string, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, timeout,
		fmt.Errorf("%w: stage %s exceeded its %v budget", ErrDeadline, name, timeout))
}

// Spec describes one supervised task.
type Spec struct {
	// Name identifies the task in logs and the wedge hook, conventionally
	// "stage/cell" (e.g. "fig4/crc32").
	Name string
	// Retries is how many extra attempts a failed, panicked, or
	// stuck-killed task gets (0 = fail on the first error). Only
	// transient failures (faultinject.IsTransient) retry.
	Retries int
	// Quiet arms the watchdog: an attempt whose heartbeat stays silent
	// this long is cancelled with ErrStuck. It must exceed the longest
	// tick-free span of the work (the pipeline's loops tick at least
	// every 64 Ki instructions); 0 disables the watchdog.
	Quiet time.Duration
}

// Counts aggregates task outcomes across a Supervisor's lifetime.
type Counts struct {
	// OK tasks succeeded on their first attempt.
	OK uint64
	// Recovered tasks succeeded after at least one failed attempt.
	Recovered uint64
	// Retried counts extra attempts across all tasks.
	Retried uint64
	// StuckKilled counts attempts the watchdog cancelled.
	StuckKilled uint64
	// Failed tasks exhausted their attempts (or failed non-transiently).
	Failed uint64
}

// Options configure a Supervisor.
type Options struct {
	// Log receives the greppable STUCK/RECOVERED/WEDGE lines
	// (default os.Stderr).
	Log io.Writer
	// Wedge is a test hook: the named task's first attempt blocks without
	// ticking its heartbeat until cancelled, simulating a wedged worker.
	// cmd/experiments wires it to the PERFCLONE_WEDGE environment
	// variable so subprocess tests can exercise the watchdog end to end.
	Wedge string
}

// Supervisor runs tasks and aggregates their outcomes. One Supervisor
// normally spans a whole run (cmd/experiments creates it and threads it
// through experiments.Options) so Summary covers every stage; the zero
// Options value is usable.
type Supervisor struct {
	logMu sync.Mutex
	log   io.Writer
	wedge string

	ok, recovered, retried, stuck, failed atomic.Uint64
}

// New builds a Supervisor.
func New(opts Options) *Supervisor {
	if opts.Log == nil {
		opts.Log = os.Stderr
	}
	return &Supervisor{log: opts.Log, wedge: opts.Wedge}
}

// logf serializes log lines: watchdogs fire from their own goroutines.
func (s *Supervisor) logf(format string, args ...any) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.log, format, args...)
}

// Run executes fn as one supervised task: each attempt gets a child
// context carrying its attempt number and (when Spec.Quiet is set) a
// heartbeat ticker plus a watchdog that cancels the attempt with
// ErrStuck after Quiet of silence. Panics are recovered into
// *PanicError. Transient failures — which include panics and stuck
// kills — retry up to Spec.Retries extra times under faultinject
// backoff; a task that eventually succeeds logs a greppable
// "supervise: RECOVERED" line.
//
// A cancellation that arrives from ctx itself (user ^C, stage deadline)
// is not a task failure: it stops the retry loop immediately and
// propagates the context's cause untouched.
func (s *Supervisor) Run(ctx context.Context, spec Spec, fn func(context.Context) error) error {
	if spec.Name == "" {
		spec.Name = "task"
	}
	attempt := 0
	err := faultinject.RetryContext(ctx, spec.Retries+1, func() error {
		attempt++
		return s.runOnce(ctx, spec, attempt, fn)
	})
	if attempt > 1 {
		s.retried.Add(uint64(attempt - 1))
	}
	switch {
	case err == nil && attempt == 1:
		s.ok.Add(1)
	case err == nil:
		s.recovered.Add(1)
		s.logf("supervise: RECOVERED task %q on attempt %d/%d\n", spec.Name, attempt, spec.Retries+1)
	case ctx.Err() != nil:
		// The run itself ended (interrupt or deadline) — propagate the
		// cause untouched so exit-code mapping still sees it.
		return err
	default:
		s.failed.Add(1)
		return fmt.Errorf("supervise: task %q failed after %d attempt(s): %w", spec.Name, attempt, err)
	}
	return nil
}

// runOnce executes a single attempt under its own cancellable context,
// heartbeat, watchdog, and panic recovery.
func (s *Supervisor) runOnce(ctx context.Context, spec Spec, attempt int, fn func(context.Context) error) (err error) {
	actx := WithAttempt(ctx, attempt)
	var cancel context.CancelCauseFunc
	if spec.Quiet > 0 {
		hb := newHeartbeat()
		actx, cancel = context.WithCancelCause(actx)
		actx = WithTicker(actx, hb.Tick)
		stop := make(chan struct{})
		defer close(stop)
		defer cancel(nil)
		go s.watch(spec, hb, cancel, stop)
	}
	defer func() {
		if r := recover(); r != nil {
			err = s.recoverPanic(spec.Name, attempt, r)
		}
	}()
	if s.wedge != "" && s.wedge == spec.Name && attempt == 1 {
		err = s.runWedged(actx, spec, attempt)
	} else {
		err = fn(actx)
	}
	if err == nil || cancel == nil {
		return err
	}
	// Normalize: when our watchdog killed this attempt, the attempt is a
	// stuck-kill no matter what error the callee propagated (a callee
	// may return a bare context.Canceled).
	if cause := context.Cause(actx); errors.Is(cause, ErrStuck) && !errors.Is(err, ErrStuck) {
		err = fmt.Errorf("%w (callee reported: %v)", ErrStuck, err)
	}
	return err
}

// runWedged is the Options.Wedge test hook: block without heartbeats
// until the watchdog (or the caller) cancels the attempt.
func (s *Supervisor) runWedged(actx context.Context, spec Spec, attempt int) error {
	s.logf("supervise: WEDGE test hook engaged for task %q attempt %d; blocking without heartbeats\n", spec.Name, attempt)
	if spec.Quiet <= 0 {
		// No watchdog would ever free a genuine block; fail the attempt
		// directly so a misconfigured hook cannot hang a run.
		return fmt.Errorf("%w (wedge hook with no watchdog armed)", ErrStuck)
	}
	<-actx.Done()
	return Cause(actx)
}

// watch is the watchdog goroutine for one attempt: poll the heartbeat at
// a fraction of the quiet budget, and cancel the attempt with ErrStuck
// once the budget passes with no tick.
func (s *Supervisor) watch(spec Spec, hb *heartbeat, cancel context.CancelCauseFunc, stop <-chan struct{}) {
	poll := spec.Quiet / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if q := hb.Quiet(); q >= spec.Quiet {
				s.stuck.Add(1)
				s.logf("supervise: STUCK task %q: no heartbeat for %v (budget %v); killing and retrying\n",
					spec.Name, q.Round(time.Millisecond), spec.Quiet)
				cancel(ErrStuck)
				return
			}
		}
	}
}

// recoverPanic converts a recovered panic value into a transient error,
// so the task is retried within its attempt budget.
func (s *Supervisor) recoverPanic(name string, attempt int, r any) error {
	pe := &PanicError{Task: name, Attempt: attempt, Value: r, Stack: debug.Stack()}
	s.logf("supervise: RECOVERED panic in task %q (attempt %d, class transient): %v\n", name, attempt, r)
	return faultinject.MarkTransient(pe)
}

// Counts returns a snapshot of the outcome counters.
func (s *Supervisor) Counts() Counts {
	return Counts{
		OK:          s.ok.Load(),
		Recovered:   s.recovered.Load(),
		Retried:     s.retried.Load(),
		StuckKilled: s.stuck.Load(),
		Failed:      s.failed.Load(),
	}
}

// Summary renders the run-summary line the CLIs print and the future
// daemon scrapes.
func (s *Supervisor) Summary() string {
	c := s.Counts()
	return fmt.Sprintf("supervise: tasks %d ok / %d recovered / %d retried / %d stuck-killed / %d failed",
		c.OK, c.Recovered, c.Retried, c.StuckKilled, c.Failed)
}
