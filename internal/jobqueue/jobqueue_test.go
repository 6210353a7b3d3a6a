package jobqueue

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"perfclone/internal/faultinject"
)

func testQueue(t *testing.T, opts Options) (*Queue, string) {
	t.Helper()
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	path := filepath.Join(t.TempDir(), "wal", "jobs.jsonl")
	q, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, path
}

func mustSubmit(t *testing.T, q *Queue, tenant string, spec Spec) Job {
	t.Helper()
	j, err := q.Submit(tenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

var expSpec = Spec{Kind: KindExperiment, Run: "fig4", Workloads: []string{"crc32"}}

func TestSubmitClaimCompleteRoundTrip(t *testing.T) {
	q, _ := testQueue(t, Options{})
	a := mustSubmit(t, q, "alice", expSpec)
	b := mustSubmit(t, q, "bob", Spec{Kind: KindProfile, Workload: "crc32"})
	if a.ID == b.ID || a.Seq >= b.Seq {
		t.Fatalf("IDs/seqs not distinct and ordered: %+v %+v", a, b)
	}

	// FIFO: first submitted is first claimed.
	got, err := q.Claim(context.Background())
	if err != nil || got.ID != a.ID || got.State != StateRunning || got.Attempts != 1 {
		t.Fatalf("Claim = %+v, %v; want %s running attempt 1", got, err, a.ID)
	}
	if err := q.Complete(a.ID, "j000001.out", nil); err != nil {
		t.Fatal(err)
	}
	done, _ := q.Get(a.ID)
	if done.State != StateDone || done.Artifact != "j000001.out" {
		t.Fatalf("after Complete: %+v", done)
	}
	if err := q.Complete(a.ID, "again", nil); err == nil {
		t.Fatal("double Complete must fail (exactly-once commit point)")
	}

	got2, err := q.Claim(context.Background())
	if err != nil || got2.ID != b.ID {
		t.Fatalf("second Claim = %+v, %v; want %s", got2, err, b.ID)
	}
	if err := q.Complete(b.ID, "", errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	failed, _ := q.Get(b.ID)
	if failed.State != StateFailed || failed.Error != "boom" {
		t.Fatalf("after failed Complete: %+v", failed)
	}
}

func TestClaimBlocksUntilSubmit(t *testing.T) {
	q, _ := testQueue(t, Options{})
	type res struct {
		j   Job
		err error
	}
	ch := make(chan res, 1)
	go func() {
		j, err := q.Claim(context.Background())
		ch <- res{j, err}
	}()
	time.Sleep(20 * time.Millisecond)
	want := mustSubmit(t, q, "alice", expSpec)
	select {
	case r := <-ch:
		if r.err != nil || r.j.ID != want.ID {
			t.Fatalf("Claim = %+v, %v", r.j, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not wake on Submit")
	}
}

func TestClaimHonorsContext(t *testing.T) {
	q, _ := testQueue(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Claim(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Claim = %v, want deadline", err)
	}
}

func TestReplayRewindsRunningAndKeepsTerminal(t *testing.T) {
	q, path := testQueue(t, Options{})
	a := mustSubmit(t, q, "alice", expSpec)
	b := mustSubmit(t, q, "alice", Spec{Kind: KindClone, Workload: "sha", Seed: 7})
	c := mustSubmit(t, q, "bob", Spec{Kind: KindProfile, Workload: "crc32"})
	if j, _ := q.Claim(context.Background()); j.ID != a.ID {
		t.Fatalf("claimed %s, want %s", j.ID, a.ID)
	}
	if err := q.Complete(a.ID, "a.out", nil); err != nil {
		t.Fatal(err)
	}
	if j, _ := q.Claim(context.Background()); j.ID != b.ID {
		t.Fatalf("claimed %s, want %s", j.ID, b.ID)
	}
	// Simulate a crash with b running and c pending: reopen without
	// Close — the WAL already has every acknowledged transition.
	q2, err := Open(path, Options{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	ja, _ := q2.Get(a.ID)
	jb, _ := q2.Get(b.ID)
	jc, _ := q2.Get(c.ID)
	if ja.State != StateDone || ja.Artifact != "a.out" {
		t.Fatalf("done job lost: %+v", ja)
	}
	if jb.State != StatePending || jb.Attempts != 1 {
		t.Fatalf("running job must rewind to pending: %+v", jb)
	}
	if jc.State != StatePending {
		t.Fatalf("pending job lost: %+v", jc)
	}
	// New submissions continue the Seq sequence (no ID reuse).
	d := mustSubmit(t, q2, "alice", expSpec)
	if d.Seq <= c.Seq {
		t.Fatalf("seq reused after replay: %d <= %d", d.Seq, c.Seq)
	}
	// Replay's claim order: b (older) before c.
	if j, _ := q2.Claim(context.Background()); j.ID != b.ID || j.Attempts != 2 {
		t.Fatalf("claimed %+v, want %s attempt 2", j, b.ID)
	}
}

func TestTornTailDropped(t *testing.T) {
	q, path := testQueue(t, Options{})
	a := mustSubmit(t, q, "alice", expSpec)
	mustSubmit(t, q, "alice", expSpec)
	q.Close()
	// Tear the last line mid-record, as a crash mid-append would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := Open(path, Options{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, ok := q2.Get(a.ID); !ok {
		t.Fatal("whole records before the torn tail must survive")
	}
	if n := len(q2.List("")); n != 1 {
		t.Fatalf("replayed %d jobs, want 1 (torn record dropped)", n)
	}
	// The next append must isolate the torn bytes on their own line.
	c := mustSubmit(t, q2, "alice", expSpec)
	jobs, dropped, err := ScanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want exactly the torn line", dropped)
	}
	found := false
	for _, j := range jobs {
		found = found || j.ID == c.ID
	}
	if !found {
		t.Fatal("record appended after a torn tail did not survive a rescan")
	}
}

func TestQuotaShedsWithRetryAfter(t *testing.T) {
	q, _ := testQueue(t, Options{Quota: 2})
	mustSubmit(t, q, "alice", expSpec)
	mustSubmit(t, q, "alice", expSpec)
	_, err := q.Submit("alice", expSpec)
	var le *LimitError
	if !errors.As(err, &le) || le.Reason != "quota" || le.RetryAfter <= 0 {
		t.Fatalf("over-quota Submit = %v, want quota LimitError with Retry-After", err)
	}
	// Quota is per tenant: bob is unaffected.
	mustSubmit(t, q, "bob", expSpec)
	// A live job finishing frees the slot.
	j, err := q.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(j.ID, "", errors.New("x")); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "alice", expSpec)
}

func TestRateLimitTokenBucket(t *testing.T) {
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	q, _ := testQueue(t, Options{Rate: 1, Burst: 2, Now: func() time.Time { return clock }})
	mustSubmit(t, q, "alice", expSpec)
	mustSubmit(t, q, "alice", expSpec)
	_, err := q.Submit("alice", expSpec)
	var le *LimitError
	if !errors.As(err, &le) || le.Reason != "rate" {
		t.Fatalf("burst-exhausted Submit = %v, want rate LimitError", err)
	}
	if le.RetryAfter <= 0 || le.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 1s] at 1 token/sec", le.RetryAfter)
	}
	// Advancing the clock refills the bucket.
	clock = clock.Add(le.RetryAfter + 10*time.Millisecond)
	mustSubmit(t, q, "alice", expSpec)
}

func TestDrainStopsAdmissionAndClaims(t *testing.T) {
	q, _ := testQueue(t, Options{})
	mustSubmit(t, q, "alice", expSpec)
	// A Claim blocked on an empty... non-empty queue still drains: start
	// one blocked on a second (absent) job.
	if _, err := q.Claim(context.Background()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := q.Claim(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	q.Drain()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("blocked Claim after Drain = %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not wake the blocked Claim")
	}
	if _, err := q.Submit("alice", expSpec); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}
}

// TestChangedFiresOnEveryTransition: the channel taken before each
// transition is closed by it, and the one taken after is still open, so
// a watcher that takes Changed before reading never misses a change.
func TestChangedFiresOnEveryTransition(t *testing.T) {
	q, _ := testQueue(t, Options{})
	var id string
	claim := func() {
		j, err := q.Claim(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		id = j.ID
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"Submit", func() { mustSubmit(t, q, "alice", expSpec) }},
		{"Claim", claim},
		{"SetProgress", func() { q.SetProgress(id, Progress{Stage: "fig4", Done: 1, Total: 2}) }},
		{"Complete", func() {
			if err := q.Complete(id, "a.out", nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"Submit", func() { mustSubmit(t, q, "alice", expSpec) }},
		{"Claim", claim},
		{"Release", func() { q.Release(id) }},
		{"Drain", q.Drain},
	}
	for _, st := range steps {
		before := q.Changed()
		st.do()
		select {
		case <-before:
		default:
			t.Fatalf("%s did not close the channel taken before it", st.name)
		}
		select {
		case <-q.Changed():
			t.Fatalf("channel taken after %s is already closed", st.name)
		default:
		}
	}
}

func TestReleaseRequeues(t *testing.T) {
	q, _ := testQueue(t, Options{})
	a := mustSubmit(t, q, "alice", expSpec)
	if _, err := q.Claim(context.Background()); err != nil {
		t.Fatal(err)
	}
	q.Release(a.ID)
	j, _ := q.Get(a.ID)
	if j.State != StatePending {
		t.Fatalf("released job is %s, want pending", j.State)
	}
}

func TestProgressIsRuntimeOnly(t *testing.T) {
	q, path := testQueue(t, Options{})
	a := mustSubmit(t, q, "alice", expSpec)
	q.SetProgress(a.ID, Progress{Stage: "fig4", Cell: "crc32/2KB", Done: 1, Total: 4})
	if p, ok := q.Progress(a.ID); !ok || p.Done != 1 {
		t.Fatalf("Progress = %+v, %v", p, ok)
	}
	q.Close()
	q2, err := Open(path, Options{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, ok := q2.Progress(a.ID); ok {
		t.Fatal("progress must not be journaled")
	}
}

func TestSpecCheck(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "mystery"},
		{Kind: KindExperiment},
		{Kind: KindProfile},
		{Kind: KindClone},
	}
	for _, sp := range bad {
		if err := sp.Check(); err == nil {
			t.Errorf("Check(%+v) = nil, want error", sp)
		}
	}
	good := []Spec{
		expSpec,
		{Kind: KindProfile, Workload: "crc32"},
		{Kind: KindClone, Workload: "crc32", Validate: true},
	}
	for _, sp := range good {
		if err := sp.Check(); err != nil {
			t.Errorf("Check(%+v) = %v", sp, err)
		}
	}
}

// walFixture is a WAL exactly as the pre-recordlog writer produced it:
// two jobs, one done and one failed (its error exercises JSON's HTML
// escaping). The WAL's bytes on disk are a fixed format — acknowledged
// jobs cannot be recomputed — so these lines must replay, and the
// current writer must reproduce them byte for byte.
const walFixture = `{"v":1,"op":"job","crc":3711215058,"data":{"id":"j000001","tenant":"alice","seq":1,"spec":{"kind":"experiment","run":"fig4","workloads":["crc32","qsort"],"insts":100000},"state":"pending"}}
{"v":1,"op":"job","crc":935204350,"data":{"id":"j000002","tenant":"bob","seq":2,"spec":{"kind":"clone","workload":"fft","seed":7,"validate":true},"state":"pending"}}
{"v":1,"op":"job","crc":863328219,"data":{"id":"j000001","tenant":"alice","seq":1,"spec":{"kind":"experiment","run":"fig4","workloads":["crc32","qsort"],"insts":100000},"state":"running","attempts":1}}
{"v":1,"op":"job","crc":1300655755,"data":{"id":"j000001","tenant":"alice","seq":1,"spec":{"kind":"experiment","run":"fig4","workloads":["crc32","qsort"],"insts":100000},"state":"done","artifact":"j000001.out","attempts":1}}
{"v":1,"op":"job","crc":3687910546,"data":{"id":"j000002","tenant":"bob","seq":2,"spec":{"kind":"clone","workload":"fft","seed":7,"validate":true},"state":"running","attempts":1}}
{"v":1,"op":"job","crc":889069811,"data":{"id":"j000002","tenant":"bob","seq":2,"spec":{"kind":"clone","workload":"fft","seed":7,"validate":true},"state":"failed","error":"fidelity: \u003cgate\u003e failed \u0026 \"quoted\"","attempts":1}}
`

func TestWALFixtureReplaysUnchanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	if err := os.WriteFile(path, []byte(walFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, Options{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	want := map[string]Job{
		"j000001": {ID: "j000001", Tenant: "alice", Seq: 1, State: StateDone, Artifact: "j000001.out", Attempts: 1,
			Spec: Spec{Kind: KindExperiment, Run: "fig4", Workloads: []string{"crc32", "qsort"}, Insts: 100_000}},
		"j000002": {ID: "j000002", Tenant: "bob", Seq: 2, State: StateFailed, Attempts: 1,
			Error: `fidelity: <gate> failed & "quoted"`,
			Spec:  Spec{Kind: KindClone, Workload: "fft", Seed: 7, Validate: true}},
	}
	for id, w := range want {
		got, ok := q.Get(id)
		if !ok || !reflect.DeepEqual(got, w) {
			t.Errorf("%s replayed as %+v, want %+v", id, got, w)
		}
	}
	if n := len(q.List("")); n != len(want) {
		t.Fatalf("replayed %d jobs, want %d", n, len(want))
	}
	if _, dropped, err := ScanWAL(path); err != nil || dropped != 0 {
		t.Fatalf("fixture scan: dropped %d, err %v", dropped, err)
	}

	// The writer still emits these exact bytes: a fresh WAL journaling
	// the same transitions is byte-identical to the fixture.
	q2, path2 := testQueue(t, Options{})
	a := mustSubmit(t, q2, "alice", want["j000001"].Spec)
	b := mustSubmit(t, q2, "bob", want["j000002"].Spec)
	for _, c := range []struct {
		id, artifact string
		err          error
	}{{a.ID, "j000001.out", nil}, {b.ID, "", errors.New(want["j000002"].Error)}} {
		if _, err := q2.Claim(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := q2.Complete(c.id, c.artifact, c.err); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != walFixture {
		t.Fatalf("WAL bytes changed:\n%s\nwant:\n%s", raw, walFixture)
	}
}

// dirSyncEIO fails every directory fsync with EIO.
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

// TestOpenDirSyncFaultFails: a WAL whose directory entry cannot be made
// durable is not opened, since an accepted job could vanish with it.
func TestOpenDirSyncFaultFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "jobs.jsonl")
	q, err := Open(path, Options{FS: dirSyncEIO{faultinject.OS}, Log: io.Discard})
	if err == nil {
		q.Close()
		t.Fatal("Open succeeded although the WAL directory fsync failed")
	}
	if !errors.Is(err, syscall.EIO) || !strings.HasPrefix(err.Error(), "jobqueue: sync ") {
		t.Fatalf("Open = %v, want a jobqueue sync error wrapping EIO", err)
	}
}
