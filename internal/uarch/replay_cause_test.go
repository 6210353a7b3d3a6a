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
// deterministically mid-trace.
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
	ctx, cancel := context.WithCancelCause(context.Background())
	ctx = supervise.WithTicker(ctx, func() { cancel(supervise.ErrStuck) })
	st, err := ReplayMultiWorkers(ctx, tr, multiConfigs(), Limits{MaxInsts: tr.Insts()}, 1)
	cancel(nil)
	if !errors.Is(err, supervise.ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck cause", err)
	}
	if st != nil {
		t.Fatal("stuck-killed walk returned stats")
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
	_, err = ReplayMultiWorkers(ctx, tr, multiConfigs(), Limits{MaxInsts: tr.Insts()}, 1)
	if !errors.Is(err, supervise.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline cause", err)
	}
}
