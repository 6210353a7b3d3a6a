package faultinject

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{syscall.EIO, true},
		{syscall.ENOSPC, true},
		{syscall.EINTR, true},
		{&os.PathError{Op: "read", Path: "x", Err: syscall.EIO}, true},
		{fmt.Errorf("wrapped: %w", MarkTransient(errors.New("flaky"))), true},
		{errors.New("unknown"), false},
		{syscall.ENOENT, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) must stay nil")
	}
}

func TestRetryBoundedAndClassAware(t *testing.T) {
	calls := 0
	err := Retry(func() error { calls++; return MarkTransient(errors.New("eio")) })
	if err == nil || calls != retryAttempts {
		t.Fatalf("always-transient: err=%v calls=%d, want error after %d", err, calls, retryAttempts)
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted retry must keep the transient class: %v", err)
	}

	calls = 0
	err = Retry(func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("eio"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("recovering op: err=%v calls=%d", err, calls)
	}

	calls = 0
	fatal := errors.New("permission denied")
	err = Retry(func() error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("fatal error must not retry: err=%v calls=%d", err, calls)
	}
}

// faultTrace drives an identical operation sequence through a FaultFS
// and records which operations failed and how. Files live under a fixed
// "data" subdirectory because fault decisions key on the last two path
// components (mirroring the store's stable traces/ and profiles/ layout).
func faultTrace(t *testing.T, root string, plan Plan) []string {
	t.Helper()
	dir := filepath.Join(root, "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ffs := New(OS, plan)
	ffs.SetSleep(func(time.Duration) {})
	var log []string
	record := func(op string, err error) {
		if err != nil {
			var errno syscall.Errno
			errors.As(err, &errno)
			log = append(log, fmt.Sprintf("%s:%v", op, errno))
		} else {
			log = append(log, op+":ok")
		}
	}
	for i := 0; i < 20; i++ {
		path := filepath.Join(dir, fmt.Sprintf("f%d", i%3))
		f, err := ffs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		record("open", err)
		if err != nil {
			continue
		}
		_, werr := f.Write([]byte("0123456789abcdef"))
		record("write", werr)
		record("sync", f.Sync())
		record("close", f.Close())
		record("rename", ffs.Rename(path, path+".renamed"))
		ffs.Rename(path+".renamed", path)
	}
	return log
}

func TestFaultSequenceSeedReproducible(t *testing.T) {
	plan := Plan{Seed: 42, Transient: 0.2, NoSpace: 0.1, TornWrite: 0.1, RenameFail: 0.2}
	a := faultTrace(t, t.TempDir(), plan)
	b := faultTrace(t, t.TempDir(), plan)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at op %d: %q vs %q", i, a[i], b[i])
		}
	}
	var faults int
	for _, op := range a {
		if op[len(op)-3:] != ":ok" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("plan with 20-60% fault rates injected nothing")
	}

	c := faultTrace(t, t.TempDir(), Plan{Seed: 43, Transient: 0.2, NoSpace: 0.1, TornWrite: 0.1, RenameFail: 0.2})
	same := 0
	for i := range a {
		if i < len(c) && a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical fault sequence")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	for _, op := range faultTrace(t, t.TempDir(), Plan{}) {
		if op[len(op)-3:] != ":ok" {
			t.Fatalf("zero plan injected a fault: %q", op)
		}
	}
}

func TestTornWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := New(OS, Plan{Seed: 7, TornWrite: 1})
	path := filepath.Join(dir, "torn")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, werr := f.Write(payload)
	f.Close()
	if werr == nil || !IsTransient(werr) {
		t.Fatalf("torn write must fail transient, got n=%d err=%v", n, werr)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write persisted %d bytes, want %d", n, len(payload)/2)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "01234" {
		t.Fatalf("on-disk prefix %q, want %q", raw, "01234")
	}
}

func TestBitFlipCorruptsSilently(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	want := []byte("the quick brown fox")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := New(OS, Plan{Seed: 11, BitFlip: 1})
	f, err := ffs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(want))
	n, rerr := f.Read(got)
	if rerr != nil || n != len(want) {
		t.Fatalf("bit-flip read must succeed silently: n=%d err=%v", n, rerr)
	}
	diff := 0
	for i := range want {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes, want exactly 1", diff)
	}
}

func TestLatencyInjection(t *testing.T) {
	ffs := New(OS, Plan{Seed: 3, MaxLatency: time.Millisecond})
	var slept int
	ffs.SetSleep(func(d time.Duration) {
		if d < 0 || d >= time.Millisecond {
			t.Fatalf("latency %v outside [0, 1ms)", d)
		}
		slept++
	})
	dir := t.TempDir()
	f, err := ffs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hi"))
	f.Close()
	if slept < 3 {
		t.Fatalf("expected latency on every op, slept %d times", slept)
	}
}
