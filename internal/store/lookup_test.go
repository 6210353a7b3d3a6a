package store

// Tests for the get-or-compute lookups (Profile, Trace): one table of
// cases, run for each artifact kind.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"strings"
	"syscall"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/faultinject"
	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

// lookupKind drives one artifact kind's get-or-compute lookup. get runs
// the lookup with a compute that calls fail first and returns its error
// if any; it checks that a successful result is the computed artifact.
type lookupKind struct {
	name   string
	get    func(st *Store, fail func() error) (hit bool, err error)
	path   func(st *Store) string
	counts func(c Counters) (hits, misses uint64)
}

func lookupKinds(t *testing.T) []lookupKind {
	t.Helper()
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), p, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	return []lookupKind{{
		name: "profile",
		get: func(st *Store, fail func() error) (bool, error) {
			got, hit, err := st.Profile("crc32", p, 10_000, func() (*profile.Profile, error) {
				if err := fail(); err != nil {
					return nil, err
				}
				return prof, nil
			})
			if err == nil && (got.TotalInsts != prof.TotalInsts || len(got.NodeList) != len(prof.NodeList)) {
				err = fmt.Errorf("looked-up profile differs from the computed one")
			}
			return hit, err
		},
		path:   func(st *Store) string { return st.profilePath("crc32", ProgramHash(p), 10_000) },
		counts: func(c Counters) (uint64, uint64) { return c.ProfileHits, c.ProfileMisses },
	}, {
		name: "trace",
		get: func(st *Store, fail func() error) (bool, error) {
			got, hit, err := st.Trace("crc32", p, 20_000, func() (*dyntrace.Trace, error) {
				if err := fail(); err != nil {
					return nil, err
				}
				return tr, nil
			})
			if err == nil {
				if got.Insts() != tr.Insts() || got.NumMem() != tr.NumMem() {
					err = fmt.Errorf("looked-up trace differs from the computed one")
				}
				if hit {
					got.Close()
				}
			}
			return hit, err
		},
		path:   func(st *Store) string { return st.tracePath("crc32", ProgramHash(p), 20_000) },
		counts: func(c Counters) (uint64, uint64) { return c.TraceHits, c.TraceMisses },
	}}
}

// countingCompute returns a compute hook that counts its calls and fails
// with err (nil: succeeds).
func countingCompute(calls *int, err error) func() error {
	return func() error {
		*calls++
		return err
	}
}

var errCompute = errors.New("compute failed")

func TestGetOrCompute(t *testing.T) {
	type step struct {
		computeErr error
		wantHit    bool
	}
	cases := []struct {
		name     string
		nilStore bool
		steps    []step
		// wantCalls counts compute calls over all steps; wantHits and
		// wantMisses are the kind's store counters afterwards.
		wantCalls            int
		wantHits, wantMisses uint64
		wantSaved            bool
	}{
		{name: "nil store computes every time", nilStore: true,
			steps: []step{{}, {}}, wantCalls: 2},
		{name: "cold call computes, saves and counts a miss",
			steps: []step{{}}, wantCalls: 1, wantMisses: 1, wantSaved: true},
		{name: "warm call hits without computing",
			steps: []step{{}, {wantHit: true}}, wantCalls: 1, wantHits: 1, wantMisses: 1, wantSaved: true},
		{name: "compute error saves nothing",
			steps: []step{{computeErr: errCompute}, {}}, wantCalls: 2, wantMisses: 2, wantSaved: true},
	}
	for _, k := range lookupKinds(t) {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				var st *Store
				if !tc.nilStore {
					var err error
					if st, err = Open(t.TempDir(), WithLog(io.Discard)); err != nil {
						t.Fatal(err)
					}
				}
				calls := 0
				for i, s := range tc.steps {
					hit, err := k.get(st, countingCompute(&calls, s.computeErr))
					if !errors.Is(err, s.computeErr) || (s.computeErr == nil && err != nil) {
						t.Fatalf("step %d: err = %v, want %v", i, err, s.computeErr)
					}
					if hit != s.wantHit {
						t.Fatalf("step %d: hit = %v, want %v", i, hit, s.wantHit)
					}
					if s.computeErr != nil {
						if _, err := os.Stat(k.path(st)); !errors.Is(err, iofs.ErrNotExist) {
							t.Fatalf("step %d: a failed compute saved an artifact (stat: %v)", i, err)
						}
					}
				}
				if calls != tc.wantCalls {
					t.Fatalf("compute ran %d times, want %d", calls, tc.wantCalls)
				}
				if st == nil {
					return
				}
				if hits, misses := k.counts(st.Counters()); hits != tc.wantHits || misses != tc.wantMisses {
					t.Fatalf("counters %d hits / %d misses, want %d / %d", hits, misses, tc.wantHits, tc.wantMisses)
				}
				if _, err := os.Stat(k.path(st)); (err == nil) != tc.wantSaved {
					t.Fatalf("artifact saved = %v, want %v", err == nil, tc.wantSaved)
				}
			})
		}
	}
}

// TestGetOrComputeCorruptQuarantinedAndRecomputed: a corrupt artifact is
// quarantined with the greppable warning, the lookup recomputes and
// saves, and the next lookup hits.
func TestGetOrComputeCorruptQuarantinedAndRecomputed(t *testing.T) {
	for _, k := range lookupKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			var log bytes.Buffer
			st, err := Open(t.TempDir(), WithLog(&log))
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			for i, wantHit := range []bool{false, false, true} {
				if i == 1 {
					corruptFile(t, k.path(st))
				}
				hit, err := k.get(st, countingCompute(&calls, nil))
				if err != nil || hit != wantHit {
					t.Fatalf("lookup %d: hit=%v err=%v, want hit=%v", i, hit, err, wantHit)
				}
			}
			if calls != 2 {
				t.Fatalf("compute ran %d times, want 2 (cold, then after the quarantine)", calls)
			}
			if !strings.Contains(log.String(), "store: QUARANTINED") {
				t.Fatalf("missing greppable quarantine warning, log: %q", log.String())
			}
			if q := st.Counters().Quarantined; q != 1 {
				t.Fatalf("quarantined %d artifacts, want 1", q)
			}
		})
	}
}

// TestGetOrComputeCorruptStrictIsError: under WithStrict a corrupt
// artifact fails the lookup before compute runs, and stays in place.
func TestGetOrComputeCorruptStrictIsError(t *testing.T) {
	for _, k := range lookupKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, WithLog(io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			if _, err := k.get(st, countingCompute(&calls, nil)); err != nil {
				t.Fatal(err)
			}
			corruptFile(t, k.path(st))
			strict, err := Open(dir, WithStrict(true), WithLog(io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.get(strict, countingCompute(&calls, nil)); err == nil {
				t.Fatal("strict store: a corrupt artifact must fail the lookup")
			}
			if calls != 1 {
				t.Fatalf("compute ran %d times, want 1 (strict must not recompute)", calls)
			}
			if _, err := os.Stat(k.path(strict)); err != nil {
				t.Fatalf("strict store must leave the artifact in place: %v", err)
			}
		})
	}
}

// failTempFS fails every temp-file creation with a persistent EIO, so
// no artifact can be committed.
type failTempFS struct{ faultinject.FS }

func (failTempFS) CreateTemp(string, string) (faultinject.File, error) { return nil, syscall.EIO }

// TestGetOrComputeWriteFaultDegraded: a save that keeps failing loses
// only durability. The lookup returns the computed artifact with a
// greppable DEGRADED warning, and the next lookup computes again.
func TestGetOrComputeWriteFaultDegraded(t *testing.T) {
	for _, k := range lookupKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			var log bytes.Buffer
			st, err := Open(t.TempDir(), WithFS(failTempFS{faultinject.OS}), WithLog(&log))
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			for i := 0; i < 2; i++ {
				if hit, err := k.get(st, countingCompute(&calls, nil)); err != nil || hit {
					t.Fatalf("lookup %d: hit=%v err=%v, want a computed miss", i, hit, err)
				}
			}
			if calls != 2 {
				t.Fatalf("compute ran %d times, want 2", calls)
			}
			if n := strings.Count(log.String(), "store: DEGRADED"); n != 2 {
				t.Fatalf("%d DEGRADED warnings, want 2; log: %q", n, log.String())
			}
		})
	}
}
