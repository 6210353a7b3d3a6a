package workloads

import (
	"strings"
	"testing"

	"perfclone/internal/funcsim"
)

// TestLargeVariantsHalt executes every large-input variant to completion.
func TestLargeVariantsHalt(t *testing.T) {
	for _, w := range Large() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Build()
			m, err := funcsim.New(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.RunColumns(funcsim.Limits{MaxInsts: 300_000_000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted {
				t.Fatal("did not halt")
			}
			// The large input must actually be larger.
			smallName := strings.TrimSuffix(w.Name, "-large")
			sw, err := ByName(smallName)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := funcsim.New(sw.Build())
			if err != nil {
				t.Fatal(err)
			}
			sres, err := sm.RunColumns(funcsim.Limits{MaxInsts: 300_000_000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Insts <= sres.Insts {
				t.Fatalf("large variant ran %d insts, small %d", res.Insts, sres.Insts)
			}
			t.Logf("%s: %d insts (small: %d)", w.Name, res.Insts, sres.Insts)
		})
	}
}

// TestLargeVariantsDisjointFromAll keeps the canonical 23-benchmark suite
// canonical.
func TestLargeVariantsDisjointFromAll(t *testing.T) {
	if len(All()) != 23 {
		t.Fatalf("canonical suite has %d benchmarks, want 23 (Table 1)", len(All()))
	}
	for _, w := range Large() {
		if _, err := ByName(w.Name); err == nil {
			t.Errorf("%s leaked into the canonical registry", w.Name)
		}
	}
}
