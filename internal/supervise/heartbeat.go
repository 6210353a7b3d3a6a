package supervise

import (
	"context"
	"sync/atomic"
	"time"
)

// heartbeat is one attempt's liveness signal: a single atomic timestamp
// the task ticks and the watchdog reads. A cell timing its real and
// clone sides concurrently ticks it from both — the task is live as long
// as either side is making progress.
type heartbeat struct {
	last atomic.Int64 // UnixNano of the most recent tick
}

func newHeartbeat() *heartbeat {
	h := &heartbeat{}
	h.Tick()
	return h
}

// Tick records liveness now. Safe for concurrent use.
func (h *heartbeat) Tick() {
	h.last.Store(time.Now().UnixNano())
}

// Quiet reports how long the heartbeat has been silent.
func (h *heartbeat) Quiet() time.Duration {
	return time.Duration(time.Now().UnixNano() - h.last.Load())
}

type tickerKey struct{}

// WithTicker attaches a heartbeat tick function to ctx. The pipeline's
// hot loops retrieve it with TickerFrom (or call Beat) so any code
// running under a supervised attempt — trace replay walks, the
// functional simulator, clone synthesis — feeds the same watchdog
// without threading a parameter through every layer.
func WithTicker(ctx context.Context, tick func()) context.Context {
	return context.WithValue(ctx, tickerKey{}, tick)
}

// TickerFrom returns the heartbeat tick function carried by ctx, or nil
// when the context is unsupervised. Loops that tick per iteration should
// resolve it once outside the loop.
func TickerFrom(ctx context.Context) func() {
	tick, _ := ctx.Value(tickerKey{}).(func())
	return tick
}

// Beat ticks ctx's heartbeat if it carries one. A no-op on unsupervised
// contexts, so library code can Beat unconditionally.
func Beat(ctx context.Context) {
	if tick := TickerFrom(ctx); tick != nil {
		tick()
	}
}

type attemptKey struct{}

// WithAttempt records the attempt number (1-based) in ctx; the
// supervisor sets it on every attempt's context.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFrom returns the supervised attempt number carried by ctx
// (1 when unsupervised), letting test fault hooks target "first attempt
// only" to exercise the retry path.
func AttemptFrom(ctx context.Context) int {
	if a, ok := ctx.Value(attemptKey{}).(int); ok {
		return a
	}
	return 1
}
