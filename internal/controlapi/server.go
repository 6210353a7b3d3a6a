// Package controlapi is perfcloned's HTTP/JSON control plane: submit
// profile/clone/experiment jobs, poll their status, stream
// checkpoint-cell progress, and fetch committed artifacts.
//
// The package owns the daemon's worker pool — a bounded set of
// goroutines claiming jobs from the crash-safe jobqueue and driving the
// in-process experiments/profile/synth stage drivers under
// internal/supervise (per-job deadline, retries, watchdog, panic
// containment). Every handler runs behind a panic-containment
// middleware: a panicking request logs a greppable "controlapi:
// RECOVERED" line and answers 500 instead of killing the daemon.
//
// Overload is shed at the door: jobqueue admission errors map to
// 429 + Retry-After (quota and rate limits) or 503 (draining), so the
// queue never grows unboundedly no matter how hot a client runs.
package controlapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"perfclone/internal/experiments"
	"perfclone/internal/faultinject"
	"perfclone/internal/jobqueue"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/workloads"
)

// Config wires a Server.
type Config struct {
	// Queue is the crash-safe job queue (required).
	Queue *jobqueue.Queue
	// Store caches traces/profiles and checkpoints experiment cells so a
	// restarted job resumes instead of recomputing (nil = no caching).
	Store *store.Store
	// DataDir holds the artifacts/ directory for committed job outputs.
	DataDir string
	// FS routes artifact-commit I/O (default faultinject.OS).
	FS faultinject.FS
	// Workers bounds the pool (default 1).
	Workers int
	// JobTimeout bounds one job's wall clock (0 = unbounded).
	JobTimeout time.Duration
	// TaskRetries grants a failed/panicked/stuck job extra attempts.
	TaskRetries int
	// Watchdog kills a job whose heartbeat stays quiet this long (0 = off).
	Watchdog time.Duration
	// Supervisor aggregates job outcomes (default: a fresh one over Log).
	Supervisor *supervise.Supervisor
	// Log receives greppable RECOVERED/degradation lines (default stderr).
	Log io.Writer
}

// Server is the HTTP control plane plus its worker pool.
type Server struct {
	cfg   Config
	fs    faultinject.FS
	super *supervise.Supervisor
	log   io.Writer
	mux   *http.ServeMux

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a Server; call Start to launch the workers and Handler to
// mount the API.
func New(cfg Config) *Server {
	if cfg.FS == nil {
		cfg.FS = faultinject.OS
	}
	if cfg.Log == nil {
		cfg.Log = os.Stderr
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Supervisor == nil {
		cfg.Supervisor = supervise.New(supervise.Options{Log: cfg.Log})
	}
	s := &Server{cfg: cfg, fs: cfg.FS, super: cfg.Supervisor, log: cfg.Log}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Start launches the worker pool under ctx; workers exit when ctx dies
// or the queue drains.
func (s *Server) Start(ctx context.Context) {
	s.sweepArtifactTemps()
	wctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker(wctx)
		}()
	}
}

// Drain is the graceful-shutdown path: stop admitting and claiming,
// cancel in-flight jobs (they checkpoint and rewind to pending), and
// wait for every worker to exit.
func (s *Server) Drain() {
	s.cfg.Queue.Drain()
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
}

// Handler returns the API wrapped in the panic-containment middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				fmt.Fprintf(s.log, "controlapi: RECOVERED panic in handler %s %s: %v\n", r.Method, r.URL.Path, rec)
				// Headers may be gone already; best-effort status.
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// writeJSON is the one response serializer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Tenant scopes quotas and rate limits ("" = "default").
	Tenant string        `json:"tenant,omitempty"`
	Spec   jobqueue.Spec `json:"spec"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if err := checkNames(req.Spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	job, err := s.cfg.Queue.Submit(req.Tenant, req.Spec)
	var limit *jobqueue.LimitError
	switch {
	case errors.As(err, &limit):
		// Shed, not queued: tell the client when to come back.
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(limit.RetryAfter.Seconds()))))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: limit.Error()})
	case errors.Is(err, jobqueue.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining, not accepting jobs"})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, job)
	}
}

// checkNames rejects a spec naming an unknown run or workload. Names
// are checked at submission, so a typo is a 400, not a journaled job
// that counts against the quota and fails minutes later.
func checkNames(sp jobqueue.Spec) error {
	switch sp.Kind {
	case jobqueue.KindExperiment:
		if err := experiments.CheckRun(sp.Run); err != nil {
			return err
		}
		for _, name := range sp.Workloads {
			if _, err := workloads.ByName(name); err != nil {
				return err
			}
		}
	case jobqueue.KindProfile, jobqueue.KindClone:
		if sp.Workload != "" {
			_, err := workloads.ByName(sp.Workload)
			return err
		}
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": s.cfg.Queue.List(r.URL.Query().Get("tenant")),
	})
}

// jobView is a job plus its live progress.
type jobView struct {
	jobqueue.Job
	Progress *jobqueue.Progress `json:"progress,omitempty"`
}

func (s *Server) view(id string) (jobView, bool) {
	j, ok := s.cfg.Queue.Get(id)
	if !ok {
		return jobView{}, false
	}
	v := jobView{Job: j}
	if p, ok := s.cfg.Queue.Progress(id); ok {
		v.Progress = &p
	}
	return v, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.view(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleEvents streams the job as NDJSON: one snapshot whenever state
// or progress changes, ending with the terminal snapshot. It wakes on
// the queue's change signal; a change to another job re-sends nothing
// because a snapshot equal to the last one sent is dropped.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	changed := s.cfg.Queue.Changed()
	v, ok := s.view(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var last []byte
	emit := func(v jobView) {
		raw, err := json.Marshal(v)
		if err != nil || bytes.Equal(raw, last) {
			return
		}
		last = raw
		// A failed write means the client left; r.Context() ends the loop.
		w.Write(append(raw, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(v)
	for !v.State.Terminal() {
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
		changed = s.cfg.Queue.Changed()
		if v, ok = s.view(id); !ok {
			return
		}
		emit(v)
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.cfg.Queue.Get(r.PathValue("id"))
	switch {
	case !ok:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
	case j.State == jobqueue.StateFailed:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job failed: " + j.Error})
	case j.State != jobqueue.StateDone:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished (state " + string(j.State) + ")"})
	default:
		f, err := s.fs.Open(s.artifactPath(j.Artifact))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "artifact unreadable: " + err.Error()})
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := s.cfg.Queue.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   counts,
	})
}
