// Command perfcloned is the long-running cloning-as-a-service daemon:
// an HTTP/JSON control plane over the crash-safe job queue. Clients
// submit profile/clone/experiment jobs, poll status, stream
// checkpoint-cell progress, and fetch artifacts; a bounded worker pool
// drives the in-process pipeline under internal/supervise.
//
// Usage:
//
//	perfcloned -data DIR [-addr HOST:PORT] [-workers N]
//	           [-quota N] [-rate R] [-burst N]
//	           [-job-timeout D] [-task-retries N] [-watchdog D]
//	           [-strict-store]
//
// Layout under -data: wal/jobs.jsonl (the job WAL), artifacts/
// (committed job outputs), store/ (trace/profile cache + checkpoints).
// A `kill -9` at any point restarts into the exact queue state: the WAL
// replays (torn tails dropped line by line), running jobs rewind to
// pending and resume from their store checkpoints, and artifact commits
// stay exactly-once.
//
// Overload sheds with 429 + Retry-After (per-tenant quota and token
// bucket) instead of queueing unboundedly. On SIGTERM or SIGINT the
// daemon drains gracefully — stop admitting, cancel in-flight jobs into
// their checkpoints, journal, print a "perfcloned: drained" summary —
// and exits 0: a clean drain is the daemon's success path. Exit codes:
// 0 after a drain, 1 on error, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"perfclone/internal/controlapi"
	"perfclone/internal/jobqueue"
	"perfclone/internal/sigdrain"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	data := flag.String("data", "", "data directory for the WAL, artifacts, and store (required)")
	workers := flag.Int("workers", 2, "worker pool size")
	quota := flag.Int("quota", 8, "max live (non-terminal) jobs per tenant (0 = unlimited)")
	rate := flag.Float64("rate", 0, "max submissions/sec per tenant (0 = unlimited)")
	burst := flag.Int("burst", 0, "submission burst per tenant (default max(1, rate))")
	jobTimeout := flag.Duration("job-timeout", 0, "wall-clock budget per job (0 = unbounded)")
	taskRetries := flag.Int("task-retries", 0, "extra attempts for a failed, panicked, or stuck job")
	watchdog := flag.Duration("watchdog", 0, "kill and retry a job whose heartbeat stays quiet this long (0 = off)")
	strictStore := flag.Bool("strict-store", false, "abort on corrupt store artifacts instead of quarantine-and-recompute")
	flag.Parse()

	if *data == "" {
		fmt.Fprintln(os.Stderr, "perfcloned: -data is required")
		os.Exit(2)
	}
	if *workers < 1 || *quota < 0 || *rate < 0 || *burst < 0 || *taskRetries < 0 ||
		*jobTimeout < 0 || *watchdog < 0 {
		fmt.Fprintln(os.Stderr, "perfcloned: flag values must be non-negative (and -workers >= 1)")
		os.Exit(2)
	}
	if err := run(*addr, *data, options{
		workers: *workers, quota: *quota, rate: *rate, burst: *burst,
		jobTimeout: *jobTimeout, taskRetries: *taskRetries, watchdog: *watchdog,
		strictStore: *strictStore,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfcloned:", err)
		os.Exit(1)
	}
}

type options struct {
	workers, quota       int
	rate                 float64
	burst                int
	jobTimeout, watchdog time.Duration
	taskRetries          int
	strictStore          bool
}

func run(addr, data string, o options) error {
	st, err := store.Open(filepath.Join(data, "store"), store.WithStrict(o.strictStore))
	if err != nil {
		return err
	}
	queue, err := jobqueue.Open(filepath.Join(data, "wal", "jobs.jsonl"), jobqueue.Options{
		Quota: o.quota, Rate: o.rate, Burst: o.burst,
	})
	if err != nil {
		return err
	}
	super := supervise.New(supervise.Options{Log: os.Stderr})
	srv := controlapi.New(controlapi.Config{
		Queue: queue, Store: st, DataDir: data,
		Workers: o.workers, JobTimeout: o.jobTimeout,
		TaskRetries: o.taskRetries, Watchdog: o.watchdog,
		Supervisor: super,
	})

	// First ^C or SIGTERM starts the graceful drain; a second one kills
	// the process outright (the WAL makes even that safe).
	ctx, drain := sigdrain.Notify(context.Background())
	defer drain.Stop()
	srv.Start(ctx)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Greppable and parseable: subprocess tests read the bound port here.
	fmt.Printf("perfcloned: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, stop admitting jobs, cancel
	// in-flight jobs into their checkpoints, flush the WAL.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "perfcloned: shutdown:", err)
	}
	srv.Drain()
	if err := queue.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, super.Summary())
	c := queue.Counts()
	fmt.Printf("perfcloned: drained — %d done / %d failed / %d pending (checkpointed for next start)\n",
		c[jobqueue.StateDone], c[jobqueue.StateFailed], c[jobqueue.StatePending])
	return nil
}
