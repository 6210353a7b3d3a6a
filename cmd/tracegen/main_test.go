package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// ref is one printed reference.
type ref struct {
	addr  uint64
	write bool
}

// cloneStream saves name's default-budget profile to a file for
// -profile-in and returns the file with the whole reference stream of the
// profile's default clone, read by one Walk over its capture. It also
// returns how many references the capture's first chunk holds.
func cloneStream(t *testing.T, name string) (profPath string, refs []ref, firstChunk int) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(w.Build(), profile.Options{MaxInsts: profile.DefaultMaxInsts})
	if err != nil {
		t.Fatal(err)
	}
	profPath = filepath.Join(t.TempDir(), name+".json")
	f, err := os.Create(profPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	clone, err := synth.Generate(prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dyntrace.Capture(clone.Program, 0)
	if err != nil {
		t.Fatal(err)
	}
	for wk := tr.Walk(0); !wk.Done(); {
		c, err := wk.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for j, a := range c.Addrs {
			refs = append(refs, ref{a, c.Stores[j>>6]>>(uint(j)&63)&1 == 1})
		}
		if c.Base == 0 {
			firstChunk = len(refs)
		}
	}
	return profPath, refs, firstChunk
}

// runTracegen runs tracegen in process and returns its stdout and stderr.
func runTracegen(t *testing.T, profPath string, n int, replay string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(&out, &errb, "", profPath, n, replay, "", false); err != nil {
		t.Fatalf("tracegen -n %d -replay %q: %v", n, replay, err)
	}
	return out.String(), errb.String()
}

// parseRefs reads printed "R <addr>" / "W <addr>" lines.
func parseRefs(t *testing.T, text string) []ref {
	t.Helper()
	var refs []ref
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		var dir byte
		var r ref
		if _, err := fmt.Sscanf(sc.Text(), "%c %d", &dir, &r.addr); err != nil || (dir != 'R' && dir != 'W') {
			t.Fatalf("malformed reference line %q (%v)", sc.Text(), err)
		}
		r.write = dir == 'W'
		refs = append(refs, r)
	}
	return refs
}

// TestPrintsCloneStream: the printed stream is the first n references of
// the default clone's capture, for n = 1, n inside the first chunk, n
// past a dyntrace.ChunkLen edge, and n past the clone's end, which prints
// every reference and reports the shortfall on stderr.
func TestPrintsCloneStream(t *testing.T) {
	basicmath, short, _ := cloneStream(t, "basicmath")
	rsynth, long, firstChunk := cloneStream(t, "rsynth")
	if firstChunk >= len(long) {
		t.Fatalf("rsynth's clone makes all %d references in its first chunk; the chunk-edge case is vacuous", len(long))
	}
	for _, tc := range []struct {
		workload string
		profPath string
		stream   []ref
		n        int
	}{
		{"basicmath", basicmath, short, 1},
		{"basicmath", basicmath, short, len(short) / 2},
		{"rsynth", rsynth, long, firstChunk + 1000},
		{"basicmath", basicmath, short, len(short) + 100},
	} {
		stdout, stderr := runTracegen(t, tc.profPath, tc.n, "")
		want := tc.stream[:min(tc.n, len(tc.stream))]
		got := parseRefs(t, stdout)
		if len(got) != len(want) {
			t.Fatalf("%s -n %d: printed %d references, want %d", tc.workload, tc.n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s -n %d: reference %d is %+v, the clone's walk has %+v", tc.workload, tc.n, i, got[i], want[i])
			}
		}
		past := tc.n > len(tc.stream)
		if line := fmt.Sprintf("halted after %d references", len(tc.stream)); past != strings.Contains(stderr, line) {
			t.Errorf("%s -n %d (clone has %d references): stderr %q", tc.workload, tc.n, len(tc.stream), stderr)
		}
	}
}

// TestReplayMatchesStandaloneCaches: each -replay size's summary equals
// that of a standalone cache fed the printed stream. At n ≤ 50,000
// references one miss moves the printed miss rate by at least 0.002 %, so
// equal lines mean equal access, miss and writeback counts.
func TestReplayMatchesStandaloneCaches(t *testing.T) {
	profPath, _, _ := cloneStream(t, "rsynth")
	const n = 50_000
	stdout, _ := runTracegen(t, profPath, n, "")
	refs := parseRefs(t, stdout)
	sizes := []string{"256B", "1KB", "4KB", "16KB", "1KB"}
	replayed, _ := runTracegen(t, profPath, n, strings.Join(sizes, ","))
	var want strings.Builder
	var writebacks uint64
	for _, s := range sizes {
		size, err := parseSize(s)
		if err != nil {
			t.Fatal(err)
		}
		c := cache.MustNew(cache.Config{Size: size, Assoc: 2, LineSize: 32})
		for _, r := range refs {
			c.Access(r.addr, r.write)
		}
		st := c.Stats()
		writebacks += st.Writebacks
		fmt.Fprintf(&want, "rsynth on %s: %d accesses, %.3f%% miss, %d writebacks\n",
			c.Config(), st.Accesses, 100*st.MissRate(), st.Writebacks)
	}
	if replayed != want.String() {
		t.Errorf("-replay output\n%s\nstandalone caches\n%s", replayed, want.String())
	}
	if writebacks == 0 {
		t.Error("no size wrote anything back; the writeback comparison is vacuous")
	}
}

// TestRejectsNonPositiveN: -n below 1 is a usage error (exit 2), in both
// print and replay modes.
func TestRejectsNonPositiveN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tracegen binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-workload", "crc32", "-n", "0"},
		{"-workload", "crc32", "-n", "-1"},
		{"-workload", "crc32", "-n", "-5", "-replay", "4KB"},
	} {
		out, err := exec.Command(bin, args...).Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tracegen %s: %v, want exit status 2", strings.Join(args, " "), err)
		}
		if len(out) != 0 {
			t.Errorf("tracegen %s printed %q", strings.Join(args, " "), out)
		}
	}
}
