package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"perfclone/internal/store"
	"perfclone/internal/supervise"
)

// cell is what runStage hands a stage's compute function for one cell,
// besides the attempt's context and the cell's index.
type cell struct {
	// opts are the run's options with defaults applied.
	opts Options
	// inner is how many goroutines the cell's own fused replays may use
	// (see WorkerBudget).
	inner int
	// cached, set by the compute function, reports that everything the
	// cell produced came from the store; its progress event says so.
	// Prepare sets it. A cell restored from its checkpoint is reported
	// cached without it.
	cached bool
}

// prepareStage names Prepare's stage. Its cells build Pairs from the
// store's own artifacts, so it is the one stage that opens no
// checkpoint: the store already keeps everything a resumed Prepare
// needs.
const prepareStage = "prepare"

// runStage runs one experiment stage: cell i, named keys[i], is computed
// by compute and lands in the returned slice at index i. It is the one
// place the stage machinery lives:
//
//   - Options defaults, handed to every cell as cell.opts;
//   - the stage deadline (Options.StageTimeout);
//   - the task supervisor (newStage);
//   - the worker split: WorkerBudget's outer count sizes the pool over
//     cells (forEach) and its inner count is each cell's cell.inner;
//   - checkpoint reuse and recording, with the deadline fence, and the
//     progress events (stageCell).
//
// On error the slice holds whatever cells finished, so a caller can
// release them.
func runStage[T any](ctx context.Context, opts Options, name string, keys []string, compute func(ctx context.Context, c *cell, i int) (T, error)) ([]T, error) {
	opts = opts.withDefaults()
	ctx, cancel := supervise.StageContext(ctx, name, opts.StageTimeout)
	defer cancel()
	sr, err := newStage(opts, name, len(keys))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	outer, inner := WorkerBudget(opts, len(keys))
	out := make([]T, len(keys))
	err = forEach(ctx, outer, len(keys), func(i int) error {
		c := &cell{opts: opts, inner: inner}
		return stageCell(ctx, sr, keys[i], &out[i], c, func(tctx context.Context) (T, error) {
			return compute(tctx, c, i)
		})
	})
	return out, err
}

// pairNames keys a stage over pairs: one cell per workload.
func pairNames(pairs []*Pair) []string {
	names := make([]string, len(pairs))
	for i, pr := range pairs {
		names[i] = pr.Name
	}
	return names
}

// configMajor flattens per-workload cells, each holding one row per
// configuration (n of them), into configuration-major order: every
// workload's row for configuration 0, then configuration 1, and so on.
func configMajor[T any](cells [][]T, n int) []T {
	rows := make([]T, 0, n*len(cells))
	for k := 0; k < n; k++ {
		for _, c := range cells {
			rows = append(rows, c[k])
		}
	}
	return rows
}

// forEach runs fn over [0,n) on a pool of up to workers goroutines
// (serially when workers ≤ 1). Work is handed out via an atomic counter,
// so a grid whose cells have very different costs — e.g. (workload ×
// design change) — stays load-balanced. The first error by index wins,
// matching serial semantics.
//
// Cancelling ctx stops workers from claiming new cells; cells already
// running finish (or abort at their own ctx poll) before forEach returns,
// so a SIGINT drains cleanly and every completed cell has been
// checkpointed. A cancelled run never returns nil: it returns the
// context's cancellation cause (context.Cause), so a stage-deadline or
// watchdog sentinel survives the pool.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := supervise.Cause(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return supervise.Cause(ctx)
}

// stageRun tracks one experiment stage: its checkpoint log (when a store
// is configured), its task supervisor, completed-cell count, and wall
// time.
type stageRun struct {
	opts  Options
	name  string
	total int
	cp    *store.Checkpoint
	super *supervise.Supervisor
	start time.Time

	mu   sync.Mutex
	done int
}

// newStage opens the stage's checkpoint (honoring Options.Resume; none
// for prepareStage) and starts its wall clock. A checkpoint that cannot
// be opened on a non-strict store degrades to running the stage without
// one: every cell recomputes and nothing is recorded, but the run
// completes.
func newStage(opts Options, name string, total int) (*stageRun, error) {
	sr := &stageRun{opts: opts, name: name, total: total, start: time.Now()}
	sr.super = opts.Supervisor
	if sr.super == nil {
		sr.super = supervise.New(supervise.Options{Log: opts.Log})
	}
	if opts.Store != nil && name != prepareStage {
		cp, err := opts.Store.OpenCheckpoint(opts.CheckpointPrefix+name, opts.Resume)
		switch {
		case err == nil:
			sr.cp = cp
		case opts.Store.Strict():
			return nil, err
		default:
			fmt.Fprintf(opts.Log, "experiments: DEGRADED: %v; stage %s runs without checkpointing\n", err, name)
		}
	}
	return sr, nil
}

// strict reports whether the run's store demands hard failures instead
// of degradation.
func (sr *stageRun) strict() bool {
	return sr.opts.Store != nil && sr.opts.Store.Strict()
}

// emit records one finished cell and forwards it to Options.Progress.
// The lock also serializes the callback, as Options.Progress promises.
func (sr *stageRun) emit(cell string, cached bool, d time.Duration) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.done++
	if sr.opts.Progress != nil {
		sr.opts.Progress(Event{
			Stage: sr.name, Cell: cell,
			Done: sr.done, Total: sr.total,
			Cached: cached, Elapsed: d,
		})
	}
}

// close flushes the checkpoint and emits the stage-summary event.
func (sr *stageRun) close() {
	if sr.cp != nil {
		sr.cp.Close()
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.opts.Progress != nil {
		sr.opts.Progress(Event{
			Stage: sr.name,
			Done:  sr.done, Total: sr.total,
			Elapsed: time.Since(sr.start),
		})
	}
}

// spec is the supervision contract for one of the stage's cells: task
// names are "stage/cell" (the grain the wedge hook and the STUCK /
// RECOVERED log lines use), with retries and watchdog taken from
// Options.
func (sr *stageRun) spec(cell string) supervise.Spec {
	return supervise.Spec{
		Name:    sr.name + "/" + cell,
		Retries: sr.opts.TaskRetries,
		Quiet:   sr.opts.Watchdog,
	}
}

// testCellHook, when set by a test, runs at the top of every supervised
// cell attempt (stage, cell, and attempt number via
// supervise.AttemptFrom) — the seam for injecting panics and wedges into
// specific cells.
var testCellHook func(ctx context.Context, stage, cell string)

// stageCell runs one grid cell as a supervised task with checkpoint
// reuse: a cell recorded by a previous run is unmarshalled into out
// (byte-identical rows — JSON round-trips float64 exactly); otherwise
// compute's result fills out under supervision — panic containment,
// optional watchdog, TaskRetries attempts — and is marked durable
// before the cell counts as done. Each attempt returns a whole new
// result that replaces out, so nothing from a failed or killed attempt,
// or from a row that failed to unmarshal, can leak into the next.
//
// The checkpoint append is deadline-fenced: once the stage context has
// died, the cell returns the cancellation cause without marking, even if
// compute returned success — inner work may have been cut short by a
// cancellation the compute path swallowed, and a valid-CRC checkpoint
// record must always describe a complete cell (an expired run leaves at
// most a torn tail, which the JSONL loader drops).
//
// On a non-strict store both checkpoint directions degrade rather than
// abort: a recorded row that does not unmarshal into T is discarded and
// the cell recomputed, and a row that cannot be persisted is logged as
// DEGRADED and the run continues (the cell would simply recompute after
// a crash). Strict stores turn both into hard errors.
func stageCell[T any](ctx context.Context, sr *stageRun, key string, out *T, c *cell, compute func(ctx context.Context) (T, error)) error {
	start := time.Now()
	if sr.cp != nil {
		if raw, ok := sr.cp.Done(key); ok {
			err := json.Unmarshal(raw, out)
			if err == nil {
				sr.emit(key, true, time.Since(start))
				return nil
			}
			if sr.strict() {
				return fmt.Errorf("experiments: checkpoint %s cell %s: %w", sr.name, key, err)
			}
			fmt.Fprintf(sr.opts.Log, "experiments: checkpoint %s cell %s: unusable row (%v); recomputing\n", sr.name, key, err)
		}
	}
	err := sr.super.Run(ctx, sr.spec(key), func(tctx context.Context) (err error) {
		if testCellHook != nil {
			testCellHook(tctx, sr.name, key)
		}
		*out, err = compute(tctx)
		return err
	})
	if err != nil {
		return err
	}
	if cerr := supervise.Cause(ctx); cerr != nil {
		return cerr
	}
	if sr.cp != nil {
		if err := sr.cp.MarkContext(ctx, key, *out); err != nil {
			if sr.strict() {
				return err
			}
			fmt.Fprintf(sr.opts.Log, "experiments: DEGRADED: %v; cell %s recomputes after a crash\n", err, key)
		}
	}
	sr.emit(key, c.cached, time.Since(start))
	return nil
}
