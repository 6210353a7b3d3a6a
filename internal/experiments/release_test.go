package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"perfclone/internal/faultinject"
	"perfclone/internal/store"
	"perfclone/internal/workloads"
)

// countingFS is the OS filesystem whose mappings count their releases.
// Once failAfter mappings exist (0 = never), Map fails.
type countingFS struct {
	faultinject.FS
	failAfter int

	mu       sync.Mutex
	releases []int // per mapping: how many times it was released
}

var errMapRefused = errors.New("countingFS: map refused")

func (c *countingFS) Map(name string) ([]byte, func() error, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAfter > 0 && len(c.releases) >= c.failAfter {
		return nil, nil, errMapRefused
	}
	data, release, err := c.FS.Map(name)
	if err != nil {
		return nil, nil, err
	}
	i := len(c.releases)
	c.releases = append(c.releases, 0)
	return data, func() error {
		c.mu.Lock()
		c.releases[i]++
		c.mu.Unlock()
		return release()
	}, nil
}

// check fails t unless at least min mappings were made and every one was
// released exactly once.
func (c *countingFS) check(t *testing.T, min int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.releases) < min {
		t.Fatalf("%d traces mapped, want at least %d", len(c.releases), min)
	}
	for i, n := range c.releases {
		if n != 1 {
			t.Errorf("mapping %d released %d times, want 1", i, n)
		}
	}
}

// TestRunReleasesMappedTraces: a store hit maps its trace, so Run must
// release every pair's traces once it has rendered, and a Prepare cell
// that fails after mapping its real trace, on its clone's trace or on
// its own profile, must release that one itself.
func TestRunReleasesMappedTraces(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Workloads:    []string{"crc32", "qsort", "fft"},
		ProfileInsts: 60_000,
		TimingInsts:  40_000,
		TimingWarmup: 10_000,
		Log:          io.Discard,
	}
	cold, err := store.Open(dir, store.WithLog(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = cold
	if err := Run(context.Background(), "fig3", opts, io.Discard); err != nil {
		t.Fatal(err)
	}

	t.Run("success", func(t *testing.T) {
		fs := &countingFS{FS: faultinject.OS}
		st, err := store.Open(dir, store.WithFS(fs), store.WithLog(io.Discard))
		if err != nil {
			t.Fatal(err)
		}
		opts := opts
		opts.Store = st
		if err := Run(context.Background(), "fig3", opts, io.Discard); err != nil {
			t.Fatal(err)
		}
		fs.check(t, 2*len(opts.Workloads))
	})

	t.Run("failure", func(t *testing.T) {
		// Serially: crc32 maps both traces, qsort maps its real trace and
		// then fails on its clone's.
		fs := &countingFS{FS: faultinject.OS, failAfter: 3}
		st, err := store.Open(dir, store.WithFS(fs), store.WithLog(io.Discard), store.WithStrict(true))
		if err != nil {
			t.Fatal(err)
		}
		opts := opts
		opts.Store = st
		if err := Run(context.Background(), "fig3", opts, io.Discard); !errors.Is(err, errMapRefused) {
			t.Fatalf("Run: %v, want the refused mapping", err)
		}
		fs.check(t, 3)
	})

	t.Run("profile failure", func(t *testing.T) {
		// crc32 maps its real trace and then fails on its corrupt
		// profile, which a strict store refuses to load.
		w, err := workloads.ByName("crc32")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "profiles", fmt.Sprintf("crc32-%s-p%d.json", store.ProgramHash(w.Build()), opts.ProfileInsts))
		if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := &countingFS{FS: faultinject.OS}
		st, err := store.Open(dir, store.WithFS(fs), store.WithLog(io.Discard), store.WithStrict(true))
		if err != nil {
			t.Fatal(err)
		}
		opts := opts
		opts.Store = st
		if err := Run(context.Background(), "fig3", opts, io.Discard); err == nil {
			t.Fatal("Run loaded a corrupt profile from a strict store")
		}
		fs.check(t, 1)
	})
}
