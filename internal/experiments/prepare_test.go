package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"perfclone/internal/store"
	"perfclone/internal/workloads"
)

// storeFiles reads every trace and profile file of the store at dir,
// keyed by its path under dir.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, pat := range []string{"traces/*", "profiles/*"} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(dir, p)
			files[rel] = b
		}
	}
	return files
}

// prepareInto runs PrepareContext against a fresh handle on the store at
// dir and returns that handle's counters.
func prepareInto(t *testing.T, dir string, opts Options) store.Counters {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	pairs, err := PrepareContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := closePairs(pairs); err != nil {
		t.Fatal(err)
	}
	return st.Counters()
}

// TestPrepareHitMissMatrix: Prepare looks a real program's trace and
// profile up before it runs anything, and recomputes exactly what is
// missing: both in one run when the profile fits in the trace, or each
// by its own run. After a cold Prepare, deleting the real profiles, the
// real traces or both must make the next Prepare miss exactly those
// artifacts, hit every other one, and write back byte-identical files.
// The profile budget is checked below and above the trace budget.
func TestPrepareHitMissMatrix(t *testing.T) {
	names := []string{"crc32", "lame"}
	for _, profileInsts := range []uint64{250_000, 400_000} {
		opts := Options{
			Workloads:    names,
			ProfileInsts: profileInsts,
			TimingWarmup: 50_000,
			TimingInsts:  150_000,
		}
		budget := traceBudget(opts)
		dir := t.TempDir()
		if got, want := prepareInto(t, dir, opts), (store.Counters{TraceMisses: 4, ProfileMisses: 2}); got != want {
			t.Fatalf("profile budget %d: cold Prepare counted %+v, want %+v", profileInsts, got, want)
		}
		cold := storeFiles(t, dir)
		if len(cold) != 6 {
			t.Fatalf("profile budget %d: cold store holds %d files, want 6", profileInsts, len(cold))
		}
		for _, del := range []struct {
			name           string
			trace, profile bool
		}{{"profile", false, true}, {"trace", true, false}, {"both", true, true}} {
			for _, n := range names {
				w, err := workloads.ByName(n)
				if err != nil {
					t.Fatal(err)
				}
				hash := store.ProgramHash(w.Build())
				if del.trace {
					if err := os.Remove(filepath.Join(dir, "traces", fmt.Sprintf("%s-%s-b%d.dtr", n, hash, budget))); err != nil {
						t.Fatal(err)
					}
				}
				if del.profile {
					if err := os.Remove(filepath.Join(dir, "profiles", fmt.Sprintf("%s-%s-p%d.json", n, hash, profileInsts))); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := store.Counters{TraceHits: 4, ProfileHits: 2}
			if del.trace {
				want.TraceHits, want.TraceMisses = 2, 2
			}
			if del.profile {
				want.ProfileHits, want.ProfileMisses = 0, 2
			}
			if got := prepareInto(t, dir, opts); got != want {
				t.Errorf("profile budget %d, %s deleted: Prepare counted %+v, want %+v", profileInsts, del.name, got, want)
			}
			got := storeFiles(t, dir)
			if len(got) != len(cold) {
				t.Errorf("profile budget %d, %s deleted: store holds %d files, want %d", profileInsts, del.name, len(got), len(cold))
			}
			for path, b := range cold {
				if !bytes.Equal(got[path], b) {
					t.Errorf("profile budget %d, %s deleted: %s differs from the cold Prepare's", profileInsts, del.name, path)
				}
			}
		}
	}
}
