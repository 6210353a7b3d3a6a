package uarch

import (
	"context"
	"errors"
	"testing"
	"time"

	"perfclone/internal/dyntrace"
	"perfclone/internal/supervise"
	"perfclone/internal/workloads"
)

// TestReplayMultiWorkersStuckCause: when the cancellation came from a
// supervise watchdog (cause ErrStuck), the walk must surface that
// sentinel — not a bare context.Canceled — so the retry loop can tell a
// stuck kill from a user ^C. The cancel is driven through the heartbeat
// ticker itself, which the walk ticks once per chunk, so it lands
// deterministically mid-trace for both the serial and parallel walks.
func TestReplayMultiWorkersStuckCause(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := dyntrace.CaptureContext(context.Background(), p, 3*65536)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiConfigs()
	lim := Limits{MaxInsts: tr.Insts()}
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancelCause(context.Background())
		ctx = supervise.WithTicker(ctx, func() { cancel(supervise.ErrStuck) })
		st, err := ReplayMultiWorkers(ctx, tr, cfgs, lim, workers)
		cancel(nil)
		if !errors.Is(err, supervise.ErrStuck) {
			t.Fatalf("workers=%d: err = %v, want ErrStuck cause", workers, err)
		}
		if st != nil {
			t.Fatalf("workers=%d: stuck-killed walk returned stats", workers)
		}
	}
}

// TestReplayMultiWorkersDeadlineCause: a stage-budget expiry must
// likewise surface ErrDeadline through the walk.
func TestReplayMultiWorkersDeadlineCause(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := dyntrace.CaptureContext(context.Background(), p, 2*65536)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := supervise.StageContext(context.Background(), "replay", time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err = ReplayMultiWorkers(ctx, tr, multiConfigs(), Limits{MaxInsts: tr.Insts()}, 2)
	if !errors.Is(err, supervise.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline cause", err)
	}
}
