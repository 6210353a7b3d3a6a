package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"perfclone/internal/experiments"
	"perfclone/internal/store"
	"perfclone/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/clone-seed1.sha256")

func testBench(t *testing.T) *bench {
	t.Helper()
	return &bench{
		ctx: context.Background(), seed: 1, rng: rand.New(rand.NewSource(1)),
		nproc: 2, tr: newTracer(false), work: t.TempDir(),
		e2e: make(map[string]metric), layer: make(map[string]metric),
	}
}

func TestFiguresCheckRejectsFlippedByte(t *testing.T) {
	text := []byte("Figure 4 — Pearson correlation\naverage 0.875\n")
	sum := sha256.Sum256(text)
	want := hex.EncodeToString(sum[:])
	if err := checkFigures(text, want); err != nil {
		t.Fatalf("intact text rejected: %v", err)
	}
	for i := range text {
		bad := append([]byte(nil), text...)
		bad[i] ^= 1
		if checkFigures(bad, want) == nil {
			t.Fatalf("byte %d flipped, check passed", i)
		}
	}
}

func TestIngestCheckRejectsTruncatedTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	run := func() []*experiments.Pair {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := experiments.Prepare(experiments.Options{
			Workloads: []string{"crc32"}, TimingInsts: 50_000, Store: st, Log: os.Stderr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closePairs(pairs) })
		return pairs
	}
	cold, warm := run(), run()
	if err := checkIngest(dir, cold, warm); err != nil {
		t.Fatalf("intact store rejected: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "traces", "*.dtr"))
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()-9); err != nil {
		t.Fatal(err)
	}
	if checkIngest(dir, cold, warm) == nil {
		t.Fatal("truncated trace passed the check")
	}
}

func TestCloneCheckRejectsWrongArtifact(t *testing.T) {
	b := testBench(t)
	job := cloneJob{"crc32", 1}
	refs, err := b.cloneReferences(filepath.Join(b.work, "ref"), []cloneJob{job}, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := jobResult{job: job, artifact: refs[job].artifact}
	if err := checkArtifact(good, refs, nil); err != nil {
		t.Fatalf("correct artifact rejected: %v", err)
	}
	bad := good
	bad.artifact[0] ^= 1
	if checkArtifact(bad, refs, nil) == nil {
		t.Fatal("wrong artifact passed the check")
	}
	committed := map[cloneJob]string{job: strings.Repeat("0", 64)}
	if checkArtifact(good, refs, committed) == nil {
		t.Fatal("artifact differing from the committed digest passed the check")
	}
}

// TestCloneDigests pins the default seed's artifacts. Run with -update
// after a deliberate change to synthesis or code generation.
func TestCloneDigests(t *testing.T) {
	b := testBench(t)
	var jobs []cloneJob
	for _, w := range workloads.Names() {
		jobs = append(jobs, cloneJob{w, 1})
	}
	refs, err := b.cloneReferences(filepath.Join(b.work, "ref"), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, j := range jobs {
		sum := refs[j].artifact
		lines = append(lines, fmt.Sprintf("%s %d %s", j.Workload, j.Seed, hex.EncodeToString(sum[:])))
	}
	text := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "clone-seed1.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != text {
		t.Fatalf("%s is stale; rerun with -update if the change is deliberate", path)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	defs := perLayerMetrics()
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(defs))
	}
	for i, d := range defs {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, d)
		}
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), "op_ms,ops_per_s,peak_rss_mb,setup_s"; got != want {
		t.Errorf("end_to_end metrics %s, want %s", got, want)
	}
}

func TestAttributeSplitsOverlapAndKeepsGap(t *testing.T) {
	tr := newTracer(true)
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, "root", at(0), at(100))
	a := tr.add(root, "a", at(10), at(50))
	tr.add(a, "b", at(20), at(30))
	tr.add(root, "c", at(40), at(60))
	layers, gap := tr.attribute(root)
	want := map[string]time.Duration{
		"a": 25 * time.Millisecond, // 10-20, 30-40, half of 40-50
		"b": 10 * time.Millisecond,
		"c": 15 * time.Millisecond, // half of 40-50, 50-60
	}
	for name, d := range want {
		if layers[name] != d {
			t.Errorf("%s = %v, want %v", name, layers[name], d)
		}
	}
	if gap != 50*time.Millisecond {
		t.Errorf("gap = %v, want 50ms", gap)
	}
}
