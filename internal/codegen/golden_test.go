package codegen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// dialects lists every dialect the emitter knows.
var dialects = []Dialect{DialectGeneric, DialectRISC, DialectARM}

// goldenPrograms returns every workload followed by its default clone
// (from the default-budget profile), the programs TestEmitCGolden pins.
func goldenPrograms(t testing.TB) []*prog.Program {
	t.Helper()
	var out []*prog.Program
	for _, w := range workloads.All() {
		p := w.Build()
		prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
		if err != nil {
			t.Fatal(err)
		}
		clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p, clone.Program)
	}
	return out
}

// TestEmitCGolden pins the emitter's bytes: testdata/emitc.sha256 holds
// the SHA-256 of EmitC for the 23 workloads and their default clones in
// every dialect. The C file is the clone's deliverable, so any change to
// its text shows up here.
func TestEmitCGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/emitc.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, p := range goldenPrograms(t) {
		for _, d := range dialects {
			src, err := EmitC(p, Options{Dialect: d})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(src))
			got = append(got, fmt.Sprintf("%s  %s/%s", hex.EncodeToString(sum[:]), p.Name, d))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d hashes computed, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("hash mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// FuzzEmitC fuzzes the workload, the synthesis seed of its clone and the
// dialect: EmitC must write the fmt reference emitter's bytes for the
// clone and for the real program.
func FuzzEmitC(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(0))
	f.Add(uint8(7), uint64(42), uint8(1))
	f.Add(uint8(22), uint64(3), uint8(2))
	all := workloads.All()
	profs := make([]*profile.Profile, len(all))
	f.Fuzz(func(t *testing.T, wl uint8, seed uint64, dialect uint8) {
		i := int(wl) % len(all)
		w := all[i]
		if profs[i] == nil {
			prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 200_000})
			if err != nil {
				t.Fatal(err)
			}
			profs[i] = prof
		}
		clone, err := synth.GenerateContext(context.Background(), profs[i], synth.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Dialect: dialects[int(dialect)%len(dialects)]}
		for _, p := range []*prog.Program{clone.Program, w.Build()} {
			got, err := EmitC(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceEmitC(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s/%s: EmitC differs from the reference emitter at byte %d", p.Name, opts.Dialect, firstDiff(got, want))
			}
		}
	})
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
