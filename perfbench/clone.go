package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"perfclone/internal/codegen"
	"perfclone/internal/controlapi"
	"perfclone/internal/fidelity"
	"perfclone/internal/jobqueue"
	"perfclone/internal/profile"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

const (
	cloneClients     = 2
	cloneWorkers     = 2
	seedsPerWorkload = 5
)

// cloneJob is one `kind: clone, validate: true` submission.
type cloneJob struct {
	Workload string
	Seed     uint64
}

// cloneJobs is every workload × seedsPerWorkload consecutive job seeds.
// The default benchmark seed 1 gives job seeds 1..5.
func (b *bench) cloneJobs() []cloneJob {
	base := 1 + seedsPerWorkload*(uint64(b.seed-1)%1000)
	var jobs []cloneJob
	for _, w := range workloads.Names() {
		for k := uint64(0); k < seedsPerWorkload; k++ {
			jobs = append(jobs, cloneJob{w, base + k})
		}
	}
	return jobs
}

// daemon is an in-process perfcloned: the same store, queue, control
// plane and worker pool cmd/perfcloned wires, served over loopback HTTP.
type daemon struct {
	store *store.Store
	queue *jobqueue.Queue
	super *supervise.Supervisor
	srv   *controlapi.Server
	http  *http.Server
	url   string
	done  chan error
}

func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	q, err := jobqueue.Open(filepath.Join(dir, "wal", "jobs.jsonl"), jobqueue.Options{Quota: 8})
	if err != nil {
		return nil, err
	}
	d := &daemon{store: st, queue: q, super: supervise.New(supervise.Options{Log: os.Stderr}), done: make(chan error, 1)}
	d.srv = controlapi.New(controlapi.Config{
		Queue: q, Store: st, DataDir: dir, Workers: cloneWorkers, Supervisor: d.super,
		// Per-attribute fidelity verdicts would flood stderr; job
		// failures and retries surface through the job states instead.
		Log: io.Discard,
	})
	d.srv.Start(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Drain()
		q.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon as cmd/perfcloned does on SIGTERM and waits
// for its server goroutine.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Drain()
	if qerr := d.queue.Close(); err == nil {
		err = qerr
	}
	return err
}

// jobResult is what a client saw of one job.
type jobResult struct {
	job      cloneJob
	latency  time.Duration
	artifact [32]byte // sha256
	err      error
}

// cloneRound starts a daemon on a fresh data directory and has
// cloneClients closed-loop clients run jobs through it: submit, wait on
// the /events stream for the terminal state, fetch the artifact. The
// returned time covers the jobs only, not the daemon's start and stop.
func (b *bench) cloneRound(dir string, jobs []cloneJob, parent int) ([]jobResult, time.Duration, *daemon, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cloneClients}}
	defer client.CloseIdleConnections()
	results := make([]jobResult, len(jobs))
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cloneClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = b.runJob(client, d, jobs[i], parent)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := d.stop(); err != nil {
		return nil, 0, nil, err
	}
	return results, wall, d, nil
}

// runJob is one client request cycle. In a traced run it records the
// job's phases as spans: the POST, the wait in the queue, the execution,
// the lag until /events reports the terminal state, and the artifact
// fetch. The queue phases come from polling Queue.Get.
func (b *bench) runJob(client *http.Client, d *daemon, j cloneJob, parent int) jobResult {
	res := jobResult{job: j}
	t0 := time.Now()
	body, _ := json.Marshal(map[string]any{
		"tenant": "bench",
		"spec":   jobqueue.Spec{Kind: jobqueue.KindClone, Workload: j.Workload, Seed: j.Seed, Validate: true},
	})
	resp, err := client.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	var job jobqueue.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		res.err = fmt.Errorf("submit %v: status %d (%v)", j, resp.StatusCode, err)
		return res
	}
	tPosted := time.Now()
	var running, done time.Time
	watched := make(chan struct{})
	if b.tr.on {
		go func() {
			defer close(watched)
			for {
				cur, ok := d.queue.Get(job.ID)
				now := time.Now()
				if ok && cur.State != jobqueue.StatePending && running.IsZero() {
					running = now
				}
				if !ok || cur.State.Terminal() {
					done = now
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	} else {
		close(watched)
	}

	final, err := waitTerminal(client, d.url+"/v1/jobs/"+job.ID+"/events")
	tTerminal := time.Now()
	<-watched
	if err != nil {
		res.err = err
		return res
	}
	if final.State != jobqueue.StateDone || final.Attempts > 1 {
		res.err = fmt.Errorf("job %s %v: state %s after %d attempt(s): %s", job.ID, j, final.State, final.Attempts, final.Error)
		return res
	}
	resp, err = client.Get(d.url + "/v1/jobs/" + job.ID + "/artifact")
	if err != nil {
		res.err = err
		return res
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if resp.StatusCode != http.StatusOK || err != nil {
		res.err = fmt.Errorf("artifact %s: status %d (%v)", job.ID, resp.StatusCode, err)
		return res
	}
	copy(res.artifact[:], h.Sum(nil))
	res.latency = end.Sub(t0)

	if b.tr.on {
		id := b.tr.add(parent, "clone.job", t0, end)
		running = later(running, tPosted)
		b.tr.add(id, "controlapi.post", t0, tPosted)
		b.tr.add(id, "jobqueue.queue_wait", tPosted, running)
		b.tr.add(id, "controlapi.execute", running, later(done, running))
		b.tr.add(id, "controlapi.notify_lag", later(done, running), tTerminal)
		b.tr.add(id, "controlapi.artifact", tTerminal, end)
	}
	return res
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// waitTerminal reads the NDJSON /events stream to its terminal snapshot.
func waitTerminal(client *http.Client, url string) (jobqueue.Job, error) {
	resp, err := client.Get(url)
	if err != nil {
		return jobqueue.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobqueue.Job{}, fmt.Errorf("events %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var j jobqueue.Job
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			return j, fmt.Errorf("events %s: %w", url, err)
		}
		if j.State.Terminal() {
			_, err := io.Copy(io.Discard, resp.Body)
			return j, err
		}
	}
	if err := sc.Err(); err != nil {
		return jobqueue.Job{}, err
	}
	return jobqueue.Job{}, fmt.Errorf("events %s: stream ended before a terminal state", url)
}

// reference is what the daemon must return for one job.
type reference struct {
	artifact [32]byte
	attempt  int
}

// cloneReferences computes every job's expected artifact in process:
// codegen.EmitC of the clone fidelity.GenerateContext gates, from a
// profile collected once per workload and kept in a store, as the daemon
// keeps it. In a traced run each layer call is a span under parent.
func (b *bench) cloneReferences(dir string, jobs []cloneJob, parent int) (map[cloneJob]reference, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	// One goroutine per workload keeps the profile miss-then-hit order
	// the daemon sees, with cloneWorkers of them running at a time.
	byWorkload := make(map[string][]cloneJob)
	var names []string
	for _, j := range jobs {
		if _, ok := byWorkload[j.Workload]; !ok {
			names = append(names, j.Workload)
		}
		byWorkload[j.Workload] = append(byWorkload[j.Workload], j)
	}
	var mu sync.Mutex
	refs := make(map[cloneJob]reference)
	err = forAll(len(names), cloneWorkers, func(i int) error {
		for _, j := range byWorkload[names[i]] {
			ref, err := b.referenceFor(st, j, parent)
			if err != nil {
				return fmt.Errorf("reference %v: %w", j, err)
			}
			mu.Lock()
			refs[j] = ref
			mu.Unlock()
		}
		return nil
	})
	return refs, err
}

func (b *bench) referenceFor(st *store.Store, j cloneJob, parent int) (reference, error) {
	ctx := b.ctx
	var ref reference
	w, err := workloads.ByName(j.Workload)
	if err != nil {
		return ref, err
	}
	p := w.Build()
	hash := store.ProgramHash(p)
	var prof *profile.Profile
	var ok bool
	err = b.tr.do(parent, "store.load_profile", func(int) error {
		prof, ok, err = st.LoadProfile(j.Workload, hash, profileInsts)
		return err
	})
	if err != nil {
		return ref, err
	}
	if !ok {
		err = b.tr.do(parent, "profile.collect", func(int) error {
			prof, err = profile.CollectContext(ctx, p, profile.Options{MaxInsts: profileInsts})
			return err
		})
		if err == nil {
			err = b.tr.do(parent, "store.save_profile", func(int) error {
				return st.SaveProfile(j.Workload, hash, profileInsts, prof)
			})
		}
		if err != nil {
			return ref, err
		}
	}
	var src string
	err = b.tr.do(parent, "fidelity.generate", func(int) error {
		clone, rep, err := fidelity.GenerateContext(ctx, prof, synth.Config{Seed: j.Seed}, fidelity.Options{Log: io.Discard})
		if err != nil {
			return err
		}
		ref.attempt = rep.Attempt
		return b.tr.do(parent, "codegen.emit", func(int) error {
			src, err = codegen.EmitC(clone.Program, codegen.Options{FuncName: j.Workload + "_clone"})
			return err
		})
	})
	ref.artifact = sha256.Sum256([]byte(src))
	return ref, err
}

// checkArtifact compares one fetched artifact with its reference and,
// when a committed digest covers the job, with that too.
func checkArtifact(r jobResult, refs map[cloneJob]reference, committed map[cloneJob]string) error {
	if r.err != nil {
		return r.err
	}
	ref, ok := refs[r.job]
	if !ok {
		return fmt.Errorf("%v: no reference", r.job)
	}
	if r.artifact != ref.artifact {
		return fmt.Errorf("%v: artifact differs from codegen.EmitC of the in-process clone", r.job)
	}
	if want, ok := committed[r.job]; ok && hex.EncodeToString(r.artifact[:]) != want {
		return fmt.Errorf("%v: artifact differs from the committed digest", r.job)
	}
	return nil
}

// readCloneDigests reads "workload seed sha256" lines.
func readCloneDigests(text string) (map[cloneJob]string, error) {
	out := make(map[cloneJob]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var j cloneJob
		var sum string
		if _, err := fmt.Sscan(line, &j.Workload, &j.Seed, &sum); err != nil {
			return nil, fmt.Errorf("clone digest line %q: %w", line, err)
		}
		out[j] = sum
	}
	return out, nil
}

func runClone(b *bench) error {
	digests, err := readDigest("clone-seed1.sha256")
	if err != nil {
		return err
	}
	committed, err := readCloneDigests(digests)
	if err != nil {
		return err
	}
	jobs := b.cloneJobs()
	rounds := 0
	newDir := func() string {
		rounds++
		return filepath.Join(b.work, fmt.Sprintf("daemon%d", rounds))
	}
	// Set-up starts a daemon on a fresh data directory (store, WAL,
	// control plane, worker pool, listener), runs one warm-up job through
	// it and stops it; the measured rounds each get a daemon of their own.
	err = b.setup(func(int) error {
		dir := newDir()
		defer os.RemoveAll(dir)
		res, _, _, err := b.cloneRound(dir, []cloneJob{{"crc32", 1}}, 0)
		if err == nil {
			err = res[0].err
		}
		return err
	})
	if err != nil {
		return err
	}
	if b.tr.on {
		return traceClone(b, jobs, committed, newDir)
	}

	var all []jobResult
	rounds0 := rounds
	times, _, err := b.measure(func() (time.Duration, error) {
		dir := newDir()
		defer os.RemoveAll(dir)
		res, d, _, err := b.cloneRound(dir, b.shuffledJobs(jobs), 0)
		all = append(all, res...)
		return d, err
	})
	if err != nil {
		return err
	}
	measured := rounds - rounds0
	refs, err := b.cloneReferences(newDir(), jobs, 0)
	if err != nil {
		return err
	}
	lat := b.checkJobs(all, refs, committed)
	if len(lat) == 0 {
		return errors.New("no clone job completed")
	}
	var busy time.Duration
	for _, d := range times {
		busy += d
	}
	b.setE2E("op_ms", ms(median(lat)), "ms")
	b.setE2E("ops_per_s", float64(len(lat))/busy.Seconds(), "1/s")
	fmt.Fprintf(os.Stderr, "perfbench: clone: %d jobs in %d round(s), p50 %.1f ms, p90 %.1f ms\n",
		len(lat), measured, ms(median(lat)), ms(percentile(lat, 90)))
	return nil
}

func (b *bench) shuffledJobs(jobs []cloneJob) []cloneJob {
	out := append([]cloneJob(nil), jobs...)
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkJobs counts every job as one operation, fails the ones whose
// request failed or whose artifact is wrong, and returns the latencies
// of the rest. It also reports how often the fidelity gate passed on the
// first attempt.
func (b *bench) checkJobs(results []jobResult, refs map[cloneJob]reference, committed map[cloneJob]string) []time.Duration {
	var lat []time.Duration
	for _, r := range results {
		b.attempted++
		if err := checkArtifact(r, refs, committed); err != nil {
			b.fail("clone: %v", err)
			continue
		}
		lat = append(lat, r.latency)
	}
	first, attempts := 0, 0
	for _, ref := range refs {
		attempts += ref.attempt
		if ref.attempt == 1 {
			first++
		}
	}
	pct := 100 * float64(first) / float64(len(refs))
	fmt.Fprintf(os.Stderr, "perfbench: clone: %.1f%% of clones passed the fidelity gate on attempt 1\n", pct)
	b.setLayer("clone_first_pass_pct", pct, "%")
	b.setLayer("fidelity.attempts", float64(attempts)/float64(len(refs)), "count")
	return lat
}

// traceClone is the traced run: one untraced and one traced round (their
// difference is the tracing overhead), then the reference computation
// with a span per layer call, which splits the daemon's execution time.
func traceClone(b *bench, jobs []cloneJob, committed map[cloneJob]string, newDir func() string) error {
	b.tr.on = false
	dir := newDir()
	res, untraced, _, err := b.cloneRound(dir, b.shuffledJobs(jobs), 0)
	os.RemoveAll(dir)
	if err != nil {
		return err
	}
	b.tr.on = true
	dir = newDir()
	defer os.RemoveAll(dir)
	root := b.tr.begin(0, "clone.round")
	res2, traced, d, err := b.cloneRound(dir, b.shuffledJobs(jobs), root)
	b.tr.end(root)
	if err != nil {
		return err
	}
	b.storeLayers(d.store.Counters(), filepath.Join(dir, "store"))
	b.superviseLayers(d.super.Counts())

	derived := b.tr.begin(0, "derived.clone")
	refs, err := b.cloneReferences(newDir(), jobs, derived)
	b.tr.end(derived)
	if err != nil {
		return err
	}
	lat := b.checkJobs(append(res, res2...), refs, committed)
	if len(lat) == 0 {
		return errors.New("no clone job completed")
	}

	acct := account{}
	var execute, total time.Duration
	jobSpans := b.tr.children(root)
	for _, js := range jobSpans {
		layers, gap := b.tr.attribute(js.ID)
		for name, d := range layers {
			if name == "controlapi.execute" {
				execute += d
			} else {
				acct.add(name, d)
			}
		}
		acct.add("clone.unattributed", gap)
		total += js.dur()
	}
	acct.split(b.tr, "controlapi.execute", execute, derived)
	acct.report(b, "clone", total, len(jobSpans))
	b.setLayer("tracing_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	b.setLayer("job_p50_ms", ms(median(lat)), "ms")
	b.setLayer("job_p90_ms", ms(percentile(lat, 90)), "ms")
	return nil
}
