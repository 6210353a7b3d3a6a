// Package jobqueue is the crash-safe job queue behind the perfcloned
// control plane: an in-memory FIFO of profile/clone/experiment jobs
// whose every state transition is journaled to an append-only WAL
// before the caller sees it.
//
// The WAL is an internal/recordlog log, the record format the store's
// checkpoints also use — one JSON record per line, a per-record IEEE
// CRC-32 over identity+payload, torn or bit-flipped lines dropped
// individually on replay — so a `kill -9` at any byte offset restarts
// into a consistent queue: the last valid record per job wins, and a
// job that was running when the process died is downgraded to pending
// and re-executed. Records for accepted and terminal jobs are fsynced
// before the transition is acknowledged (submission survives the ack;
// a done job can never un-finish), while the pending→running record is
// only buffered — losing it merely re-runs the job, which is safe
// because execution is deterministic and artifact commits are atomic
// renames.
//
// Admission control keeps the queue bounded under overload: a per-tenant
// quota on live (non-terminal) jobs plus a per-tenant token bucket on
// submission rate. Both shed load with a *LimitError carrying a
// Retry-After hint instead of queueing unboundedly.
package jobqueue

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"perfclone/internal/faultinject"
	"perfclone/internal/recordlog"
)

// Kind classifies what a job computes.
type Kind string

const (
	// KindExperiment renders one paper figure/table (Spec.Run).
	KindExperiment Kind = "experiment"
	// KindProfile collects a workload's statistical profile.
	KindProfile Kind = "profile"
	// KindClone synthesizes a workload's benchmark clone (C source).
	KindClone Kind = "clone"
)

// State is a job's lifecycle position. Only pending→running→{done,failed}
// transitions exist; a crash rewinds running to pending on replay.
type State string

const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Spec is the client-provided description of the work.
type Spec struct {
	Kind Kind `json:"kind"`
	// Run names the experiment to render: any experiments.Run name.
	// Experiment jobs only.
	Run string `json:"run,omitempty"`
	// Workloads restricts an experiment's benchmark set (empty = all).
	Workloads []string `json:"workloads,omitempty"`
	// Workload names the target for profile and clone jobs.
	Workload string `json:"workload,omitempty"`
	// Insts bounds profiling / timing simulation (0 = defaults).
	Insts uint64 `json:"insts,omitempty"`
	// Seed is the clone-synthesis PRNG seed (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Validate gates a clone job on the closed-loop fidelity check.
	Validate bool `json:"validate,omitempty"`
}

// Check rejects structurally bad specs before they are journaled.
// (controlapi checks run and workload names against their registries.)
func (sp Spec) Check() error {
	switch sp.Kind {
	case KindExperiment:
		if sp.Run == "" {
			return errors.New("experiment job needs a run name")
		}
	case KindProfile, KindClone:
		if sp.Workload == "" {
			return fmt.Errorf("%s job needs a workload name", sp.Kind)
		}
	default:
		return fmt.Errorf("unknown job kind %q", sp.Kind)
	}
	return nil
}

// Job is one submitted unit of work; the WAL stores full snapshots of
// this struct, so replay needs no cross-record reconstruction.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Seq orders jobs for FIFO claiming and survives restarts.
	Seq   uint64 `json:"seq"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Error carries the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Artifact is the committed output file (relative to the daemon's
	// artifact directory) for StateDone.
	Artifact string `json:"artifact,omitempty"`
	// Attempts counts executions across restarts.
	Attempts int `json:"attempts,omitempty"`
}

// Progress is the runtime-only checkpoint-cell progress of a running
// job, mirrored from experiments.Event. It is not journaled: a restart
// recomputes it from the store checkpoints.
type Progress struct {
	Stage string `json:"stage,omitempty"`
	Cell  string `json:"cell,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// ErrDraining rejects submissions and claims once Drain was called.
var ErrDraining = errors.New("jobqueue: draining, not accepting work")

// Options configure Open.
type Options struct {
	// FS routes all WAL I/O (default faultinject.OS; chaos tests inject
	// a FaultFS).
	FS faultinject.FS
	// Log receives greppable recovery/degradation lines (default stderr).
	Log io.Writer
	// Quota caps live (non-terminal) jobs per tenant (0 = unlimited).
	Quota int
	// Rate and Burst shape the per-tenant submission token bucket
	// (Rate jobs/sec, bucket size Burst; Rate 0 = unlimited).
	Rate  float64
	Burst int
	// Now is the clock seam for the token bucket (default time.Now).
	Now func() time.Time
}

// Queue is the durable job queue. All methods are safe for concurrent
// use by the HTTP handlers and the worker pool.
type Queue struct {
	path string
	fs   faultinject.FS
	log  io.Writer
	adm  *admission

	mu       sync.Mutex
	f        faultinject.File
	wal      *recordlog.Writer
	jobs     map[string]*Job
	progress map[string]Progress
	nextSeq  uint64
	draining bool
	wake     chan struct{} // closed and replaced on every queue change
}

// Open replays the WAL at path (creating it if absent) and returns the
// reconstructed queue. Jobs that were running at crash time are
// downgraded to pending with a greppable "jobqueue: RECOVERED" line;
// torn or corrupt WAL lines are dropped individually.
func Open(path string, opts Options) (*Queue, error) {
	if opts.FS == nil {
		opts.FS = faultinject.OS
	}
	if opts.Log == nil {
		opts.Log = os.Stderr
	}
	q := &Queue{
		path:     path,
		fs:       opts.FS,
		log:      opts.Log,
		adm:      newAdmission(opts),
		jobs:     make(map[string]*Job),
		progress: make(map[string]Progress),
		nextSeq:  1,
		wake:     make(chan struct{}),
	}
	if err := faultinject.Retry(func() error {
		return q.fs.MkdirAll(filepath.Dir(path), 0o755)
	}); err != nil {
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	tornTail, err := q.replay()
	if err != nil {
		return nil, err
	}
	var f faultinject.File
	err = faultinject.Retry(func() error {
		var err error
		f, err = q.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("jobqueue: open %s: %w", path, err)
	}
	// A crash that tore the final append leaves the tail mid-line: the
	// next append leads with a newline so the torn bytes stay on their
	// own (droppable) line.
	q.f, q.wal = f, recordlog.NewWriter(f, tornTail)
	// Make the file's existence itself durable, so an accepted job can
	// never vanish with its directory entry.
	if err := faultinject.SyncDir(q.fs, filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	return q, nil
}

// replay loads the WAL into memory: last valid record per job wins,
// running jobs rewind to pending. It reports whether the WAL ends in a
// torn append.
func (q *Queue) replay() (tornTail bool, err error) {
	jobs, dropped, tornTail, err := scanWAL(q.fs, q.path)
	if errors.Is(err, iofs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if dropped > 0 {
		fmt.Fprintf(q.log, "jobqueue: dropped %d torn or corrupt WAL line(s); affected transitions replay from their last valid record\n", dropped)
	}
	for i := range jobs {
		j := jobs[i]
		q.jobs[j.ID] = &j
		if j.Seq >= q.nextSeq {
			q.nextSeq = j.Seq + 1
		}
	}
	for _, j := range q.jobs {
		if j.State == StateRunning {
			j.State = StatePending
			fmt.Fprintf(q.log, "jobqueue: RECOVERED job %s (%s): was running at crash, requeued for attempt %d\n",
				j.ID, j.Spec.Kind, j.Attempts+1)
		}
	}
	return tornTail, nil
}

// Submit validates, admits, journals (fsynced), and enqueues one job.
// The returned snapshot is the accepted job; a *LimitError or
// ErrDraining means the job was shed and nothing was journaled.
func (q *Queue) Submit(tenant string, spec Spec) (Job, error) {
	if err := spec.Check(); err != nil {
		return Job{}, fmt.Errorf("jobqueue: %w", err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return Job{}, ErrDraining
	}
	if err := q.adm.admit(tenant, q.liveLocked(tenant)); err != nil {
		return Job{}, err
	}
	j := &Job{
		ID:     fmt.Sprintf("j%06d", q.nextSeq),
		Tenant: tenant,
		Seq:    q.nextSeq,
		Spec:   spec,
		State:  StatePending,
	}
	// Durable before acknowledged: the submission must survive a crash
	// the instant the client sees its job ID.
	if err := q.appendLocked(*j, true); err != nil {
		return Job{}, err
	}
	q.nextSeq++
	q.jobs[j.ID] = j
	q.notifyLocked()
	return *j, nil
}

// liveLocked counts tenant's non-terminal jobs.
func (q *Queue) liveLocked(tenant string) int {
	n := 0
	for _, j := range q.jobs {
		if j.Tenant == tenant && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// Claim blocks until a pending job is available (FIFO by Seq), marks it
// running, and returns it. It fails with ErrDraining once Drain was
// called and with ctx's error on cancellation.
func (q *Queue) Claim(ctx context.Context) (Job, error) {
	for {
		q.mu.Lock()
		if q.draining {
			q.mu.Unlock()
			return Job{}, ErrDraining
		}
		if j := q.nextPendingLocked(); j != nil {
			j.State = StateRunning
			j.Attempts++
			// Buffered, not fsynced: losing this record in a crash only
			// rewinds the job to pending, which replay does anyway.
			if err := q.appendLocked(*j, false); err != nil {
				j.State = StatePending
				j.Attempts--
				q.mu.Unlock()
				return Job{}, err
			}
			cp := *j
			q.notifyLocked()
			q.mu.Unlock()
			return cp, nil
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case <-wake:
		}
	}
}

func (q *Queue) nextPendingLocked() *Job {
	var best *Job
	for _, j := range q.jobs {
		if j.State == StatePending && (best == nil || j.Seq < best.Seq) {
			best = j
		}
	}
	return best
}

// Complete journals a job's terminal state (fsynced — this is the
// exactly-once commit point: the artifact file must already be durable
// when Complete is called). A nil jobErr marks done with the artifact;
// otherwise failed with the error message.
func (q *Queue) Complete(id, artifact string, jobErr error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("jobqueue: complete %s: unknown job", id)
	}
	if j.State.Terminal() {
		return fmt.Errorf("jobqueue: complete %s: already %s", id, j.State)
	}
	next := *j
	if jobErr != nil {
		next.State, next.Error, next.Artifact = StateFailed, jobErr.Error(), ""
	} else {
		next.State, next.Error, next.Artifact = StateDone, "", artifact
	}
	if err := q.appendLocked(next, true); err != nil {
		return err
	}
	*j = next
	delete(q.progress, id)
	q.notifyLocked()
	return nil
}

// Release rewinds a claimed job to pending without journaling a new
// record — the in-memory equivalent of the crash-replay downgrade, used
// when a worker abandons a job on drain.
func (q *Queue) Release(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok && j.State == StateRunning {
		j.State = StatePending
		q.notifyLocked()
	}
}

// Get returns a snapshot of one job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of all jobs (tenant "" = every tenant),
// ordered by Seq.
func (q *Queue) List(tenant string) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if tenant == "" || j.Tenant == tenant {
			out = append(out, *j)
		}
	}
	slices.SortFunc(out, func(a, b Job) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Counts tallies jobs by state.
func (q *Queue) Counts() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[State]int, 4)
	for _, j := range q.jobs {
		out[j.State]++
	}
	return out
}

// SetProgress publishes a running job's checkpoint-cell progress.
func (q *Queue) SetProgress(id string, p Progress) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok && !j.State.Terminal() {
		q.progress[id] = p
		q.notifyLocked()
	}
}

// Progress returns the last published progress for a job.
func (q *Queue) Progress(id string) (Progress, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p, ok := q.progress[id]
	return p, ok
}

// Drain stops admissions and claims: Submit and Claim fail with
// ErrDraining, pending jobs stay journaled for the next start, and any
// blocked Claim wakes immediately.
func (q *Queue) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = true
	q.notifyLocked()
}

// Close flushes and closes the WAL.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.f.Sync(); err != nil {
		q.f.Close()
		return fmt.Errorf("jobqueue: %w", err)
	}
	if err := q.f.Close(); err != nil {
		return fmt.Errorf("jobqueue: %w", err)
	}
	return nil
}

// Changed returns a channel that is closed at the next queue change:
// a submission, claim, progress update, completion, release or drain.
// Take it before reading the state it guards, so a change in between
// is never missed.
func (q *Queue) Changed() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wake
}

// notifyLocked wakes both of the channel's audiences: every blocked
// Claim and every event watcher (see Changed).
func (q *Queue) notifyLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}
