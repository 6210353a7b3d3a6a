package controlapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"perfclone/internal/experiments"
	"perfclone/internal/faultinject"
	"perfclone/internal/jobqueue"
	"perfclone/internal/profile"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
)

// testServer wires a queue + server + httptest listener over a temp
// data dir and starts the worker pool (unless noWorkers defers that to
// the test).
func testServer(t *testing.T, dataDir string, qopts jobqueue.Options, cfg Config, noWorkers ...bool) (*Server, *jobqueue.Queue, *httptest.Server) {
	t.Helper()
	if qopts.Log == nil {
		qopts.Log = io.Discard
	}
	q, err := jobqueue.Open(filepath.Join(dataDir, "wal", "jobs.jsonl"), qopts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Queue = q
	cfg.DataDir = dataDir
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Store == nil {
		st, err := store.Open(filepath.Join(dataDir, "store"), store.WithLog(io.Discard))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.Supervisor == nil {
		cfg.Supervisor = supervise.New(supervise.Options{Log: io.Discard})
	}
	srv := New(cfg)
	if len(noWorkers) == 0 || !noWorkers[0] {
		srv.Start(context.Background())
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
		q.Close()
	})
	return srv, q, ts
}

func submit(t *testing.T, ts *httptest.Server, tenant string, spec jobqueue.Spec) (int, jobqueue.Job, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Tenant: tenant, Spec: spec})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobqueue.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, j, resp
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobqueue.Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j jobqueue.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobqueue.Job{}
}

func fetchArtifact(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: status %d: %s", id, resp.StatusCode, raw)
	}
	return raw
}

func TestSubmitPollArtifactRoundTrip(t *testing.T) {
	_, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 2})
	code, j, _ := submit(t, ts, "alice", jobqueue.Spec{Kind: jobqueue.KindProfile, Workload: "crc32", Insts: 50_000})
	if code != http.StatusAccepted || j.ID == "" {
		t.Fatalf("submit: %d %+v", code, j)
	}
	done := waitTerminal(t, ts, j.ID)
	if done.State != jobqueue.StateDone {
		t.Fatalf("job failed: %+v", done)
	}
	raw := fetchArtifact(t, ts, j.ID)
	// The artifact is the profile JSON; it must load.
	if _, err := profile.Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("artifact is not a loadable profile: %v", err)
	}

	// List and healthz see the job.
	resp, err := http.Get(ts.URL + "/v1/jobs?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []jobqueue.Job }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(healthz), `"done":1`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, healthz)
	}
}

func TestCloneJobRendersC(t *testing.T) {
	_, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1})
	code, j, _ := submit(t, ts, "alice", jobqueue.Spec{Kind: jobqueue.KindClone, Workload: "crc32", Insts: 50_000, Seed: 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitTerminal(t, ts, j.ID)
	if done.State != jobqueue.StateDone {
		t.Fatalf("clone job failed: %+v", done)
	}
	src := string(fetchArtifact(t, ts, j.ID))
	if !strings.Contains(src, "crc32_clone") {
		t.Fatalf("artifact does not look like the clone C source:\n%.400s", src)
	}
}

// TestRunNamesAreTheRegistry: the daemon admits exactly the CLI's run
// names, and its 400 for any other name lists them all.
func TestRunNamesAreTheRegistry(t *testing.T) {
	_, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1}, true)
	for _, name := range experiments.RunNames() {
		if code, _, _ := submit(t, ts, "a", jobqueue.Spec{Kind: jobqueue.KindExperiment, Run: name}); code != http.StatusAccepted {
			t.Errorf("run %q: %d, want 202", name, code)
		}
	}
	body, _ := json.Marshal(submitRequest{Spec: jobqueue.Spec{Kind: jobqueue.KindExperiment, Run: "fig99"}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(experiments.RunNames(), "|"); resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, want) {
		t.Fatalf("unknown run: %d %q, want 400 listing %s", resp.StatusCode, eb.Error, want)
	}
}

// TestExperimentArtifactIsRunOutput: a daemon experiment job's artifact
// is byte-for-byte what experiments.Run prints for the same run.
func TestExperimentArtifactIsRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment pipeline run skipped in -short")
	}
	spec := jobqueue.Spec{Kind: jobqueue.KindExperiment, Run: "fig4", Workloads: []string{"crc32"}, Insts: 100_000}
	_, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1})
	code, job, _ := submit(t, ts, "alice", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if j := waitTerminal(t, ts, job.ID); j.State != jobqueue.StateDone {
		t.Fatalf("job failed: %+v", j)
	}
	got := fetchArtifact(t, ts, job.ID)

	var want bytes.Buffer
	opts := experiments.Options{Workloads: spec.Workloads, TimingInsts: spec.Insts, Log: io.Discard}
	if err := experiments.Run(context.Background(), spec.Run, opts, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("artifact differs from experiments.Run:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestStartSweepsArtifactTemps: a commit killed between its temp file
// and the rename leaves the temp behind; the next Start removes it and
// keeps committed artifacts.
func TestStartSweepsArtifactTemps(t *testing.T) {
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"j000001.out", "j000002.out.tmp123"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	testServer(t, dataDir, jobqueue.Options{}, Config{Workers: 1})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "j000001.out" {
		t.Fatalf("artifacts after Start: %v, want only j000001.out", entries)
	}
}

// TestUnknownWorkloadRejectedAtSubmit: a spec naming a workload that
// does not exist is a 400 carrying the registry's error, and nothing is
// journaled; known names are still admitted.
func TestUnknownWorkloadRejectedAtSubmit(t *testing.T) {
	_, q, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1}, true)
	for _, spec := range []jobqueue.Spec{
		{Kind: jobqueue.KindClone, Workload: "nope"},
		{Kind: jobqueue.KindProfile, Workload: "nope"},
		{Kind: jobqueue.KindExperiment, Run: "fig4", Workloads: []string{"crc32", "nope"}},
	} {
		body, _ := json.Marshal(submitRequest{Spec: spec})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, `unknown workload "nope"`) {
			t.Errorf("%+v: %d %q, want 400 naming the unknown workload", spec, resp.StatusCode, eb.Error)
		}
	}
	if jobs := q.List(""); len(jobs) != 0 {
		t.Fatalf("rejected specs were journaled: %+v", jobs)
	}
	for _, spec := range []jobqueue.Spec{
		{Kind: jobqueue.KindClone, Workload: "crc32"},
		{Kind: jobqueue.KindExperiment, Run: "fig4", Workloads: []string{"crc32", "qsort"}},
	} {
		if code, _, _ := submit(t, ts, "a", spec); code != http.StatusAccepted {
			t.Errorf("%+v: %d, want 202", spec, code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1})
	if code, _, _ := submit(t, ts, "a", jobqueue.Spec{Kind: jobqueue.KindExperiment, Run: "fig99"}); code != http.StatusBadRequest {
		t.Fatalf("unknown run: %d, want 400", code)
	}
	if code, _, _ := submit(t, ts, "a", jobqueue.Spec{Kind: "mystery"}); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/j999999/artifact")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d, want 404", resp.StatusCode)
	}
}

func TestHandlerPanicContained(t *testing.T) {
	var log bytes.Buffer
	srv, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1, Log: &log})
	// Same-package surgery: route one path to a panicking handler behind
	// the real containment middleware.
	srv.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	resp, err := http.Get(ts.URL + "/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(log.String(), "controlapi: RECOVERED panic") {
		t.Fatalf("missing greppable containment line, log: %q", log.String())
	}
	// The daemon survives: the next request works.
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
}

// TestOverloadShedsWith429 is the overload e2e: sustained submissions
// at 10x quota are shed with 429 + Retry-After, the live set never
// exceeds the quota (bounded queue growth), accepted jobs still finish,
// and a drain answers 503.
func TestOverloadShedsWith429(t *testing.T) {
	const quota = 2
	// Workers held back during the flood, so completions cannot race the
	// quota check: the live set saturates and stays saturated.
	srv, q, ts := testServer(t, t.TempDir(), jobqueue.Options{Quota: quota}, Config{Workers: 1}, true)
	var accepted []string
	shed := 0
	for i := 0; i < 10*quota; i++ {
		code, j, resp := submit(t, ts, "flood", jobqueue.Spec{Kind: jobqueue.KindProfile, Workload: "crc32", Insts: 20_000})
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, j.ID)
		case http.StatusTooManyRequests:
			shed++
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 without a usable Retry-After: %q", resp.Header.Get("Retry-After"))
			}
		default:
			t.Fatalf("submission %d: unexpected status %d", i, code)
		}
		// The bounded-growth invariant, checked at every step.
		live := 0
		for _, j := range q.List("flood") {
			if !j.State.Terminal() {
				live++
			}
		}
		if live > quota {
			t.Fatalf("live jobs %d exceed quota %d", live, quota)
		}
	}
	if len(accepted) != quota {
		t.Fatalf("accepted %d, want exactly the quota %d", len(accepted), quota)
	}
	if shed != 10*quota-quota {
		t.Fatalf("shed %d, want %d", shed, 10*quota-quota)
	}
	// Now let the pool run: every accepted job still finishes.
	srv.Start(context.Background())
	for _, id := range accepted {
		if j := waitTerminal(t, ts, id); j.State != jobqueue.StateDone {
			t.Fatalf("accepted job %s did not finish: %+v", id, j)
		}
	}

	srv.Drain()
	code, _, _ := submit(t, ts, "flood", jobqueue.Spec{Kind: jobqueue.KindProfile, Workload: "crc32"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
}

func TestEventsStreamEndsAtTerminal(t *testing.T) {
	_, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1})
	code, j, _ := submit(t, ts, "alice", jobqueue.Spec{Kind: jobqueue.KindProfile, Workload: "crc32", Insts: 50_000})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // the stream must end on its own
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty event stream")
	}
	var final jobqueue.Job
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last event line not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if !final.State.Terminal() {
		t.Fatalf("stream ended on non-terminal state %s", final.State)
	}
}

// TestDrainRestartResumesByteIdentical is the in-process half of the
// crash story: drain mid-experiment (the job rewinds to pending), build
// a fresh queue+server over the same data dir, and require the finished
// artifact to match an uninterrupted run byte for byte.
func TestDrainRestartResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment pipeline run skipped in -short")
	}
	expSpec := jobqueue.Spec{Kind: jobqueue.KindExperiment, Run: "fig4", Workloads: []string{"crc32"}, Insts: 100_000}

	// Reference: uninterrupted run in its own data dir.
	_, _, refTS := testServer(t, t.TempDir(), jobqueue.Options{}, Config{Workers: 1})
	code, refJob, _ := submit(t, refTS, "alice", expSpec)
	if code != http.StatusAccepted {
		t.Fatalf("ref submit: %d", code)
	}
	if j := waitTerminal(t, refTS, refJob.ID); j.State != jobqueue.StateDone {
		t.Fatalf("reference job failed: %+v", j)
	}
	ref := fetchArtifact(t, refTS, refJob.ID)

	// Interrupted run: drain while the job is (very likely) mid-flight.
	dataDir := t.TempDir()
	srv1, q1, ts1 := testServer(t, dataDir, jobqueue.Options{}, Config{Workers: 1})
	code, job, _ := submit(t, ts1, "alice", expSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	for {
		if j, _ := q1.Get(job.ID); j.State == jobqueue.StateRunning || j.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Drain()
	ts1.Close()
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh queue + server over the same WAL and store.
	_, q2, ts2 := testServer(t, dataDir, jobqueue.Options{}, Config{Workers: 1})
	if j, ok := q2.Get(job.ID); !ok || j.State.Terminal() && j.State != jobqueue.StateDone {
		t.Fatalf("after restart: %+v ok=%v", j, ok)
	}
	done := waitTerminal(t, ts2, job.ID)
	if done.State != jobqueue.StateDone {
		t.Fatalf("resumed job failed: %+v", done)
	}
	got := fetchArtifact(t, ts2, job.ID)
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed artifact differs from uninterrupted run\nref %d bytes, got %d bytes", len(ref), len(got))
	}
	// Exactly-once: at most one terminal WAL record for the job.
	jobs, _, err := jobqueue.ScanWAL(filepath.Join(dataDir, "wal", "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	terminal := 0
	for _, j := range jobs {
		if j.ID == job.ID && j.State.Terminal() {
			terminal++
		}
	}
	if terminal != 1 {
		t.Fatalf("job %s has %d terminal WAL records, want exactly 1", job.ID, terminal)
	}
	// And exactly one committed artifact file for it.
	matches, err := filepath.Glob(filepath.Join(dataDir, "artifacts", job.ID+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("artifact files for %s: %v, want exactly one", job.ID, matches)
	}
}

// dirSyncEIO fails every directory fsync with EIO, the way a failing
// disk reports that a rename may not be durable.
type dirSyncEIO struct{ faultinject.FS }

type eioSyncFile struct{ faultinject.File }

func (eioSyncFile) Sync() error { return syscall.EIO }

func (d dirSyncEIO) Open(name string) (faultinject.File, error) {
	f, err := d.FS.Open(name)
	if err != nil {
		return nil, err
	}
	if st, serr := d.FS.Stat(name); serr == nil && st.IsDir() {
		return eioSyncFile{f}, nil
	}
	return f, nil
}

// TestArtifactDirSyncFaultFailsJob: a directory fsync that keeps failing
// with EIO fails the artifact commit, so the job is journalled failed
// and never reaches done on a rename that may not be durable.
func TestArtifactDirSyncFaultFailsJob(t *testing.T) {
	cfg := Config{Workers: 1, FS: dirSyncEIO{faultinject.OS}, Retry: faultinject.RetryPolicy{Sleep: func(time.Duration) {}}}
	srv, _, ts := testServer(t, t.TempDir(), jobqueue.Options{}, cfg)
	if err := srv.commitArtifact("direct.out", []byte("x")); !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "controlapi: sync ") {
		t.Fatalf("commitArtifact = %v, want a controlapi sync error wrapping EIO", err)
	}
	code, j, _ := submit(t, ts, "alice", jobqueue.Spec{Kind: jobqueue.KindProfile, Workload: "crc32", Insts: 50_000})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if got := waitTerminal(t, ts, j.ID); got.State != jobqueue.StateFailed || !strings.Contains(got.Error, syscall.EIO.Error()) {
		t.Fatalf("job = %s (%q), want failed with the EIO", got.State, got.Error)
	}
}
