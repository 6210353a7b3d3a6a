package store

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// goldenPrograms lists the programs whose store keys are pinned: every
// workload, its default clone (from the default-budget profile) and the
// large input variants.
func goldenPrograms(t testing.TB) []struct {
	name string
	p    *prog.Program
} {
	t.Helper()
	var out []struct {
		name string
		p    *prog.Program
	}
	add := func(name string, p *prog.Program) {
		out = append(out, struct {
			name string
			p    *prog.Program
		}{name, p})
	}
	for _, w := range workloads.All() {
		p := w.Build()
		add(w.Name, p)
		prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
		if err != nil {
			t.Fatal(err)
		}
		clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
		if err != nil {
			t.Fatal(err)
		}
		add(w.Name+"-clone", clone.Program)
	}
	for _, w := range workloads.Large() {
		add(w.Name, w.Build())
	}
	return out
}

// TestProgramHashGolden pins every store key: testdata/programhash.txt
// holds ProgramHash of the 23 workloads, their default clones and the
// large input variants. A key that moves orphans every artifact a store
// already holds for that program, so a change to the assembly text or to
// the hash shows up here first.
func TestProgramHashGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/programhash.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, g := range goldenPrograms(t) {
		got = append(got, fmt.Sprintf("%s  %s", ProgramHash(g.p), g.name))
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
