package store

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

func testProgramAndTrace(t *testing.T) (*Store, *dyntrace.Trace) {
	t.Helper()
	st, err := Open(t.TempDir())
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
	return st, tr
}

func TestTraceRoundTripAndCounters(t *testing.T) {
	st, tr := testProgramAndTrace(t)
	p := tr.Program()

	if _, ok, err := st.LoadTrace("crc32", p, 20_000); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := st.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.LoadTrace("crc32", p, 20_000)
	if err != nil || !ok {
		t.Fatalf("after save: ok=%v err=%v", ok, err)
	}
	if got.Insts() != tr.Insts() || got.NumMem() != tr.NumMem() {
		t.Fatalf("loaded trace differs: %d/%d insts, %d/%d refs",
			got.Insts(), tr.Insts(), got.NumMem(), tr.NumMem())
	}
	// A different budget is a different key.
	if _, ok, err := st.LoadTrace("crc32", p, 40_000); err != nil || ok {
		t.Fatalf("budget must be part of the key: ok=%v err=%v", ok, err)
	}
	c := st.Counters()
	if c.TraceHits != 1 || c.TraceMisses != 2 {
		t.Fatalf("counters %+v, want 1 hit / 2 misses", c)
	}
}

func TestCorruptTraceStrictIsError(t *testing.T) {
	st, tr := testProgramAndTrace(t)
	if err := st.SaveTrace("crc32", tr, 20_000); err != nil {
		t.Fatal(err)
	}
	path := st.tracePath("crc32", ProgramHash(tr.Program()), 20_000)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Strict mode keeps the old abort behavior: corruption is an error,
	// never a silent miss, and nothing is quarantined.
	strict, err := Open(st.Dir(), WithStrict(true), WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := strict.LoadTrace("crc32", tr.Program(), 20_000); err == nil {
		t.Fatalf("strict store: corrupt artifact must error, got ok=%v", ok)
	}
	if strict.Counters().Quarantined != 0 {
		t.Fatal("strict store must not quarantine")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("strict store must leave the artifact in place: %v", err)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	hash := ProgramHash(p)
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadProfile("crc32", hash, 10_000); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := st.SaveProfile("crc32", hash, 10_000, prof); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.LoadProfile("crc32", hash, 10_000)
	if err != nil || !ok {
		t.Fatalf("after save: ok=%v err=%v", ok, err)
	}
	if got.TotalInsts != prof.TotalInsts || len(got.NodeList) != len(prof.NodeList) {
		t.Fatal("loaded profile differs")
	}
	c := st.Counters()
	if c.ProfileHits != 1 || c.ProfileMisses != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestProgramHashDistinguishesPrograms(t *testing.T) {
	w1, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	h1a, h1b := ProgramHash(w1.Build()), ProgramHash(w1.Build())
	h2 := ProgramHash(w2.Build())
	if h1a != h1b {
		t.Fatalf("hash not deterministic: %s vs %s", h1a, h1b)
	}
	if h1a == h2 {
		t.Fatalf("different programs share hash %s", h1a)
	}
}

func TestCheckpointMarkDoneResume(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name string
		IPC  float64
	}
	cp, err := st.OpenCheckpoint("fig6", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cp.Done("crc32"); ok {
		t.Fatal("fresh checkpoint claims a done cell")
	}
	if err := cp.MarkContext(context.Background(), "crc32", row{"crc32", 1.25}); err != nil {
		t.Fatal(err)
	}
	if err := cp.MarkContext(context.Background(), "fft", row{"fft", 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: both cells visible, rows identical.
	cp2, err := st.OpenCheckpoint("fig6", true)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Len() != 2 {
		t.Fatalf("resumed with %d cells, want 2", cp2.Len())
	}
	raw, ok := cp2.Done("crc32")
	if !ok {
		t.Fatal("crc32 cell lost")
	}
	if string(raw) != `{"Name":"crc32","IPC":1.25}` {
		t.Fatalf("row payload %s", raw)
	}
	cp2.Close()

	// Fresh (non-resume) open truncates.
	cp3, err := st.OpenCheckpoint("fig6", false)
	if err != nil {
		t.Fatal(err)
	}
	if cp3.Len() != 0 {
		t.Fatalf("truncated checkpoint still has %d cells", cp3.Len())
	}
	cp3.Close()
}

func TestCheckpointTornTailDropped(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.OpenCheckpoint("table3", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.MarkContext(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	// Simulate a crash mid-append.
	path := filepath.Join(st.Dir(), "checkpoints", "table3.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"cell":"b","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cp2, err := st.OpenCheckpoint("table3", true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 1 {
		t.Fatalf("torn tail: %d cells, want 1 (the intact record)", cp2.Len())
	}
	if _, ok := cp2.Done("b"); ok {
		t.Fatal("torn cell must not count as done")
	}
}

// TestCheckpointMarkAfterTornTailResume: a crash leaves a torn record
// with no newline at the end of the log; the resumed run's next Mark
// must start a fresh line, or the new record fuses with the torn bytes
// and is lost on the following resume.
func TestCheckpointMarkAfterTornTailResume(t *testing.T) {
	st, err := Open(t.TempDir(), WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.OpenCheckpoint("table3", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.MarkContext(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	path := filepath.Join(st.Dir(), "checkpoints", "table3.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"cell":"b","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2, err := st.OpenCheckpoint("table3", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp2.MarkContext(context.Background(), "b", 2); err != nil {
		t.Fatal(err)
	}
	cp2.Close()
	cp3, err := st.OpenCheckpoint("table3", true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	for cell, want := range map[string]string{"a": "1", "b": "2"} {
		if raw, ok := cp3.Done(cell); !ok || string(raw) != want {
			t.Errorf("cell %s after torn-tail resume: %s, %v; want %s", cell, raw, ok, want)
		}
	}
}
