package store

// Tests for the failure model: quarantine-and-recompute degradation,
// lock-free concurrent commits, fsync-before-rename commits, the doctor
// repair pass, and checkpoint torn-line recovery.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"perfclone/internal/dyntrace"
	"perfclone/internal/faultinject"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// corruptFile flips one byte in the middle of path.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptTraceQuarantinedAndRecomputed(t *testing.T) {
	st, tr := testProgramAndTrace(t)
	if err := st.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	path := st.tracePath("crc32", ProgramHash(tr.Program()), 20_000)
	corruptFile(t, path)

	var log bytes.Buffer
	soft, err := Open(st.Dir(), WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := soft.LoadTrace("crc32", tr.Program(), 20_000)
	if err != nil || ok || got != nil {
		t.Fatalf("corrupt artifact must degrade to a miss: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(log.String(), "store: QUARANTINED") {
		t.Fatalf("missing greppable quarantine warning, log: %q", log.String())
	}
	if c := soft.Counters(); c.Quarantined != 1 || c.TraceMisses != 1 {
		t.Fatalf("counters %+v, want 1 quarantined / 1 miss", c)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt artifact still in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "quarantine", filepath.Base(path))); err != nil {
		t.Fatalf("artifact not in quarantine/: %v", err)
	}

	// The degraded miss is recoverable: recompute, save, and the next
	// load is a clean hit.
	if err := soft.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := soft.LoadTrace("crc32", tr.Program(), 20_000); err != nil || !ok {
		t.Fatalf("after recompute: ok=%v err=%v", ok, err)
	}
}

// TestV1TraceQuarantinedAndRecomputed: PCDT v1, v2 and v3 are no
// longer readable, so a trace image under a retired version's header (a
// store an earlier format wrote) takes the ordinary corrupt-artifact
// path: quarantined, reported as a miss, recomputed; Doctor quarantines
// the same image.
func TestV1TraceQuarantinedAndRecomputed(t *testing.T) {
	for _, version := range []uint32{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			st, tr := testProgramAndTrace(t)
			if err := st.SaveTrace("crc32", tr, 20_000); err != nil {
				t.Fatal(err)
			}
			path := st.tracePath("crc32", ProgramHash(tr.Program()), 20_000)
			current, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.Clone(current)
			binary.LittleEndian.PutUint32(old[4:], version)
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}

			strict, err := Open(st.Dir(), WithStrict(true), WithLog(io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := strict.LoadTrace("crc32", tr.Program(), 20_000); err == nil || !strings.Contains(err.Error(), "strict") {
				t.Fatalf("a strict store must refuse a v%d image: err=%v", version, err)
			}

			var log bytes.Buffer
			soft, err := Open(st.Dir(), WithLog(&log))
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := soft.LoadTrace("crc32", tr.Program(), 20_000)
			if err != nil || ok || got != nil {
				t.Fatalf("v%d image must degrade to a miss: ok=%v err=%v", version, ok, err)
			}
			if !strings.Contains(log.String(), "store: QUARANTINED") || !strings.Contains(log.String(), fmt.Sprintf("unsupported version %d", version)) {
				t.Fatalf("missing greppable quarantine warning, log: %q", log.String())
			}
			if c := soft.Counters(); c.Quarantined != 1 {
				t.Fatalf("counters %+v, want 1 quarantined", c)
			}
			if err := soft.SaveTrace("crc32", tr, 20_000); err != nil {
				t.Fatal(err)
			}
			back, ok, err := soft.LoadTrace("crc32", tr.Program(), 20_000)
			if err != nil || !ok {
				t.Fatalf("after recompute: ok=%v err=%v", ok, err)
			}
			var img bytes.Buffer
			if err := back.Save(&img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Bytes(), current) {
				t.Fatal("recomputed trace does not round-trip to the original image")
			}

			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := soft.Doctor()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Quarantined) != 1 || rep.Quarantined[0] != path {
				t.Fatalf("doctor quarantined %v, want [%s]", rep.Quarantined, path)
			}
		})
	}
}

// saveConcurrently runs four SaveTrace calls of tr on each handle at
// once and requires every one to succeed.
func saveConcurrently(t *testing.T, tr *dyntrace.Trace, handles ...*Store) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(handles))
	for i := 0; i < 4; i++ {
		for _, st := range handles {
			wg.Add(1)
			go func(st *Store) {
				defer wg.Done()
				errs <- st.SaveTrace("crc32", tr, 20_000)
			}(st)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent SaveTrace: %v", err)
		}
	}
}

// TestConcurrentWritersConverge: writers from two handles (two
// processes sharing one store) commit the same artifact at once with no
// lock. Each renames its own temp file into place and all carry the
// same bytes, so every save succeeds, the artifact loads, and no debris
// is left.
func TestConcurrentWritersConverge(t *testing.T) {
	dir := t.TempDir()
	// Two handles simulate two processes sharing one store directory.
	a, err := Open(dir, WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), 20_000)
	if err != nil {
		t.Fatal(err)
	}

	saveConcurrently(t, tr, a, b)
	if got, ok, err := a.LoadTrace("crc32", tr.Program(), 20_000); err != nil || !ok || got.Insts() != tr.Insts() {
		t.Fatalf("artifact unreadable after concurrent writers: ok=%v err=%v", ok, err)
	}
	// No leftover claim files or temp files.
	entries, err := os.ReadDir(filepath.Join(dir, "traces"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), ".lock") {
			t.Fatalf("leftover debris after concurrent writers: %s", e.Name())
		}
	}
}

// TestMappedTraceSurvivesConcurrentCommits pins what lock-free commits rely
// on: a trace loaded zero-copy out of the store keeps its bytes while
// writers from two handles rename fresh copies of the same artifact over
// the mapped file. The loaded trace must re-save byte-identical and
// replay to identical statistics.
func TestMappedTraceSurvivesConcurrentCommits(t *testing.T) {
	a, tr := testProgramAndTrace(t)
	b, err := Open(a.Dir(), WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	var orig bytes.Buffer
	if err := tr.Save(&orig); err != nil {
		t.Fatal(err)
	}
	lim := uarch.Limits{Warmup: 5_000}
	want, err := uarch.ReplayContext(context.Background(), tr, uarch.BaseConfig(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	loaded, ok, err := a.LoadTrace("crc32", tr.Program(), 20_000)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	defer loaded.Close()

	saveConcurrently(t, tr, a, b)

	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), orig.Bytes()) {
		t.Fatalf("mapped trace changed under peer commits: %d bytes re-saved, want %d identical", resaved.Len(), orig.Len())
	}
	got, err := uarch.ReplayContext(context.Background(), loaded, uarch.BaseConfig(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mapped trace replays differently after peer commits:\ngot  %+v\nwant %+v", got, want)
	}
}

// countingFS counts Sync calls on every file it hands out, including
// directory handles, to pin the fsync-before-rename commit protocol.
type countingFS struct {
	faultinject.FS
	syncs *atomic.Int64
}

type countingFile struct {
	faultinject.File
	syncs *atomic.Int64
}

func (f countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

func (c countingFS) Open(name string) (faultinject.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.syncs}, nil
}

func (c countingFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultinject.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.syncs}, nil
}

func (c countingFS) CreateTemp(dir, pattern string) (faultinject.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.syncs}, nil
}

func TestAtomicWriteFsyncsFileAndDir(t *testing.T) {
	var syncs atomic.Int64
	st, err := Open(t.TempDir(), WithFS(countingFS{faultinject.OS, &syncs}), WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	// One fsync on the temp file before the rename, one on the parent
	// directory after it.
	if n := syncs.Load(); n < 2 {
		t.Fatalf("atomic commit issued %d fsyncs, want >= 2 (temp file + directory)", n)
	}
}

func TestDoctorQuarantinesAndCleans(t *testing.T) {
	var log bytes.Buffer
	st, tr := testProgramAndTrace(t)
	stl, err := Open(st.Dir(), WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	if err := stl.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	// A profile artifact that is pure garbage.
	badProfile := filepath.Join(st.Dir(), "profiles", "bogus-deadbeef-p100.json")
	if err := os.WriteFile(badProfile, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Debris: a stale temp file from a crashed writer, a stale claim file
	// as older, locking binaries left behind, and a fresh temp file that
	// could belong to a live writer.
	tracesDir := filepath.Join(st.Dir(), "traces")
	staleTmp := filepath.Join(tracesDir, "old.dtr.tmp123")
	staleLock := filepath.Join(tracesDir, "old.dtr.lock")
	freshTmp := filepath.Join(tracesDir, "new.dtr.tmp456")
	for _, p := range []string{staleTmp, staleLock, freshTmp} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	for _, p := range []string{staleTmp, staleLock} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := stl.Doctor()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Healthy != 1 {
		t.Fatalf("report %+v, want 2 scanned / 1 healthy", rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != badProfile {
		t.Fatalf("quarantined %v, want [%s]", rep.Quarantined, badProfile)
	}
	if len(rep.Cleaned) != 2 {
		t.Fatalf("cleaned %v, want the stale tmp and lock", rep.Cleaned)
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Fatalf("doctor must leave fresh temp files alone: %v", err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "quarantine", filepath.Base(badProfile))); err != nil {
		t.Fatalf("bad profile not in quarantine/: %v", err)
	}

	// A second pass over the repaired store finds nothing to fix.
	rep2, err := stl.Doctor()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Scanned != rep2.Healthy || len(rep2.Quarantined) != 0 {
		t.Fatalf("second pass %+v, want all healthy", rep2)
	}
}

func TestCheckpointMultiTornLinesRecovered(t *testing.T) {
	var log bytes.Buffer
	st, err := Open(t.TempDir(), WithLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.OpenCheckpoint("grid", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"a", "b", "c"} {
		if err := cp.MarkContext(context.Background(), cell, map[string]int{"n": len(cell)}); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()

	// Rebuild the file with garbage interleaved between the intact
	// records: a torn JSON prefix, plain junk, a record whose payload was
	// bit-flipped after the CRC was computed (still valid JSON), and a
	// torn tail.
	path := filepath.Join(st.Dir(), "checkpoints", "grid.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("setup: %d lines, want 3", len(lines))
	}
	flipped := strings.Replace(lines[2], `"n":1`, `"n":7`, 1)
	if flipped == lines[2] {
		t.Fatal("setup: payload substitution failed")
	}
	mangled := strings.Join([]string{
		lines[0],
		`{"v":2,"cell":"torn","crc":1,"da`, // crash mid-append
		lines[1],
		"####garbage####", // not JSON at all
		flipped,           // parses, fails CRC
		lines[2],
		`{"v":2,"ce`, // torn tail, no newline
	}, "\n")
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	cp2, err := st.OpenCheckpoint("grid", true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 3 {
		t.Fatalf("recovered %d cells, want all 3 intact records", cp2.Len())
	}
	for _, cell := range []string{"a", "b", "c"} {
		if _, ok := cp2.Done(cell); !ok {
			t.Fatalf("cell %s lost", cell)
		}
	}
	if raw, _ := cp2.Done("c"); string(raw) != `{"n":1}` {
		t.Fatalf("bit-flipped record won over the intact one: %s", raw)
	}
	if !strings.Contains(log.String(), "dropped 4 torn or corrupt line(s)") {
		t.Fatalf("missing torn-line warning, log: %q", log.String())
	}
}

// tornOnceFS tears the first sufficiently large write to a checkpoint
// file: half the bytes land, then a transient EIO.
type tornOnceFS struct {
	faultinject.FS
	torn *atomic.Bool
}

type tornOnceFile struct {
	faultinject.File
	torn *atomic.Bool
}

func (f tornOnceFile) Write(p []byte) (int, error) {
	if len(p) > 10 && f.torn.CompareAndSwap(false, true) {
		n, _ := f.File.Write(p[: len(p)/2 : len(p)/2])
		return n, faultinject.MarkTransient(syscall.EIO)
	}
	return f.File.Write(p)
}

func (fs tornOnceFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultinject.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".jsonl") {
		return tornOnceFile{f, fs.torn}, nil
	}
	return f, nil
}

func TestCheckpointTornWriteIsolatedByNewline(t *testing.T) {
	var torn atomic.Bool
	st, err := Open(t.TempDir(), WithFS(tornOnceFS{faultinject.OS, &torn}), WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.OpenCheckpoint("grid", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.MarkContext(context.Background(), "a", map[string]int{"n": 1}); err != nil {
		t.Fatalf("Mark must absorb a transient torn write via retry: %v", err)
	}
	if err := cp.MarkContext(context.Background(), "b", map[string]int{"n": 2}); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !torn.Load() {
		t.Fatal("setup: fault never fired")
	}
	cp2, err := st.OpenCheckpoint("grid", true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	// The torn half-line sits isolated on its own line; both real
	// records survive.
	if cp2.Len() != 2 {
		t.Fatalf("recovered %d cells, want 2", cp2.Len())
	}
}
