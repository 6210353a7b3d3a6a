// Package store is the durable artifact store behind the evaluation
// pipeline: a content-addressed on-disk cache for captured dynamic traces
// (dyntrace binary format) and workload profiles (profile JSON), plus a
// JSONL checkpoint log of completed experiment grid cells.
//
// Artifacts are keyed by (artifact name, program hash, budget). The
// program hash is a SHA-256 over the program's canonical assembly dump,
// so any change to a workload generator or to the clone synthesizer
// produces a different key and stale artifacts are simply never hit —
// there is no invalidation protocol. Profile and Trace are the
// get-or-compute lookups callers use: load, or compute and save on a
// miss. Writes go through faultinject.CommitFile (temp file, fsync,
// atomic rename, parent-directory fsync), so neither a crash nor a
// SIGINT mid-write can commit a torn artifact; the dyntrace checksum and
// the profile loader's structural check are the second line of defense.
//
// Failure model. All I/O goes through a faultinject.FS seam and obeys
// the package's error taxonomy: transient errors (EIO, ENOSPC, …) are
// retried with bounded exponential backoff; an artifact that is corrupt
// or still unreadable after retries is moved to quarantine/ with a
// greppable "store: QUARANTINED" warning and reported as a miss, so the
// caller recomputes instead of aborting (WithStrict restores the abort
// behavior). Concurrent runs may share one store without any lock:
// artifacts are a deterministic function of their key, so every writer
// of one path produces the same bytes, and each commits by renaming its
// own temp file into place. The last rename wins and readers only ever
// see a whole artifact. Doctor is the offline verify-and-repair pass.
//
// Layout under the store directory:
//
//	traces/<name>-<hash>-b<budget>.dtr     dyntrace binary (versioned, CRC)
//	profiles/<name>-<hash>-p<insts>.json   profile JSON (profile.Save)
//	checkpoints/<stage>.jsonl              one line per finished grid cell
//	quarantine/<artifact>                  corrupt artifacts, moved aside
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"perfclone/internal/dyntrace"
	"perfclone/internal/faultinject"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
)

// Store is a handle on one artifact directory. All methods are safe for
// concurrent use by the experiment worker pool.
type Store struct {
	dir    string
	fs     faultinject.FS
	strict bool
	log    io.Writer

	traceHits     atomic.Uint64
	traceMisses   atomic.Uint64
	profileHits   atomic.Uint64
	profileMisses atomic.Uint64
	quarantined   atomic.Uint64
}

// Option configures Open.
type Option func(*Store)

// WithFS routes every store I/O through fsys (chaos tests inject a
// faultinject.FaultFS here; production uses the default faultinject.OS).
func WithFS(fsys faultinject.FS) Option { return func(s *Store) { s.fs = fsys } }

// WithStrict makes a corrupt or unreadable artifact a hard error instead
// of quarantine-and-recompute (the CLI's -strict-store).
func WithStrict(strict bool) Option { return func(s *Store) { s.strict = strict } }

// WithLog redirects the store's degradation warnings (default os.Stderr).
func WithLog(w io.Writer) Option { return func(s *Store) { s.log = w } }

// Counters is a snapshot of the store's accounting; the CLI reports it
// and the golden resume and chaos tests assert on it.
type Counters struct {
	TraceHits, TraceMisses     uint64
	ProfileHits, ProfileMisses uint64
	// Quarantined counts artifacts moved aside as corrupt or unreadable.
	Quarantined uint64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, fs: faultinject.OS, log: os.Stderr}
	for _, o := range opts {
		o(s)
	}
	for _, sub := range []string{"traces", "profiles", "checkpoints", "quarantine"} {
		err := faultinject.Retry(func() error {
			return s.fs.MkdirAll(filepath.Join(dir, sub), 0o755)
		})
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Strict reports whether the store aborts (rather than degrades) on
// corrupt or unreadable artifacts.
func (s *Store) Strict() bool { return s.strict }

// Counters returns a snapshot of the hit/miss counters.
func (s *Store) Counters() Counters {
	return Counters{
		TraceHits:     s.traceHits.Load(),
		TraceMisses:   s.traceMisses.Load(),
		ProfileHits:   s.profileHits.Load(),
		ProfileMisses: s.profileMisses.Load(),
		Quarantined:   s.quarantined.Load(),
	}
}

// ProgramHash returns the content hash that keys artifacts derived from
// p: a SHA-256 over the canonical assembly dump, truncated to 16 hex
// digits (64 bits — far beyond collision range for tens of artifacts).
// The dump streams into the digest (prog.Program.WriteAsm), so the text
// is never built as one string; its bytes are DumpAsm's.
func ProgramHash(p *prog.Program) string {
	h := sha256.New()
	_ = p.WriteAsm(h) // a hash.Hash never fails a write
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sanitize keeps artifact file names portable.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

func (s *Store) tracePath(name, hash string, budget uint64) string {
	return filepath.Join(s.dir, "traces", fmt.Sprintf("%s-%s-b%d.dtr", sanitize(name), hash, budget))
}

func (s *Store) profilePath(name, hash string, insts uint64) string {
	return filepath.Join(s.dir, "profiles", fmt.Sprintf("%s-%s-p%d.json", sanitize(name), hash, insts))
}

// readArtifact opens path and runs load over its contents, retrying
// transient faults with a fresh open each attempt. A missing file
// surfaces as iofs.ErrNotExist.
func (s *Store) readArtifact(path string, load func(io.Reader) error) error {
	return faultinject.Retry(func() error {
		f, err := s.fs.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return load(f)
	})
}

// degradeLoad implements the shared artifact-load policy after a
// non-missing failure: strict aborts; otherwise the artifact is
// quarantined, a warning is logged, and the load degrades to a miss so
// the caller recomputes.
func (s *Store) degradeLoad(path string, err error) error {
	if s.strict {
		return fmt.Errorf("store: %s: %w (strict mode: run -doctor, or drop -strict-store to quarantine and recompute)", path, err)
	}
	s.quarantine(path, err)
	return nil
}

// quarantine moves a bad artifact into quarantine/ (falling back to
// deletion if even the rename keeps failing) and logs a greppable
// warning. The artifact is counted once either way.
func (s *Store) quarantine(path string, cause error) {
	dest := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	err := faultinject.Retry(func() error { return s.fs.Rename(path, dest) })
	if err != nil {
		if rerr := faultinject.Retry(func() error { return s.fs.Remove(path) }); rerr == nil {
			dest = "(deleted: quarantine rename failed)"
		} else {
			dest = "(left in place: quarantine failed)"
		}
	}
	s.quarantined.Add(1)
	fmt.Fprintf(s.log, "store: QUARANTINED %s -> %s: %v; recomputing\n", path, dest, cause)
}

// LoadTrace returns the cached trace for (name, hash of p, budget),
// attached to p, or ok=false on a miss. A present-but-unloadable
// artifact (corruption, version skew, program mismatch, persistent read
// errors) is quarantined and degrades to a miss — the caller recomputes
// — unless the store is strict, in which case it is an error.
func (s *Store) LoadTrace(name string, p *prog.Program, budget uint64) (t *dyntrace.Trace, ok bool, err error) {
	return s.loadTrace(s.tracePath(name, ProgramHash(p), budget), p)
}

// loadTrace is LoadTrace from the artifact's path.
func (s *Store) loadTrace(path string, p *prog.Program) (t *dyntrace.Trace, ok bool, err error) {
	// Map the artifact and let the trace alias it (PCDT replays straight
	// out of the page cache where the FS mmaps). On success the trace
	// adopts the mapping and releases it on Close; on any failure the
	// mapping is dropped here and the error feeds the degrade and
	// quarantine policy.
	var tr *dyntrace.Trace
	lerr := faultinject.Retry(func() error {
		data, release, err := s.fs.Map(path)
		if err != nil {
			return err
		}
		t2, err := dyntrace.LoadBytes(data, release, p)
		if err != nil {
			release()
			return err
		}
		tr = t2
		return nil
	})
	switch {
	case lerr == nil:
		s.traceHits.Add(1)
		return tr, true, nil
	case errors.Is(lerr, iofs.ErrNotExist):
		s.traceMisses.Add(1)
		return nil, false, nil
	}
	if err := s.degradeLoad(path, fmt.Errorf("trace: %w", lerr)); err != nil {
		return nil, false, err
	}
	s.traceMisses.Add(1)
	return nil, false, nil
}

// SaveTrace writes t under (name, hash of its program, budget) with an
// fsynced, atomic temp-file rename.
func (s *Store) SaveTrace(name string, t *dyntrace.Trace, budget uint64) error {
	return s.saveArtifact(s.tracePath(name, ProgramHash(t.Program()), budget), t.Save)
}

// LoadProfile returns the cached profile for (name, hash, insts), or
// ok=false on a miss, with the same degradation policy as LoadTrace.
func (s *Store) LoadProfile(name, hash string, insts uint64) (pr *profile.Profile, ok bool, err error) {
	path := s.profilePath(name, hash, insts)
	var got *profile.Profile
	lerr := s.readArtifact(path, func(r io.Reader) error {
		p2, err := profile.Load(r)
		if err != nil {
			return err
		}
		got = p2
		return nil
	})
	switch {
	case lerr == nil:
		s.profileHits.Add(1)
		return got, true, nil
	case errors.Is(lerr, iofs.ErrNotExist):
		s.profileMisses.Add(1)
		return nil, false, nil
	}
	if err := s.degradeLoad(path, fmt.Errorf("profile: %w", lerr)); err != nil {
		return nil, false, err
	}
	s.profileMisses.Add(1)
	return nil, false, nil
}

// SaveProfile writes pr under (name, hash, insts) atomically.
func (s *Store) SaveProfile(name, hash string, insts uint64, pr *profile.Profile) error {
	return s.saveArtifact(s.profilePath(name, hash, insts), pr.Save)
}

// Profile is the get-or-compute lookup every profile consumer goes
// through: it returns the stored profile of p under (name, insts) with
// hit=true, or runs compute and saves its result. Loads and saves keep
// their own policies (counters, quarantine, strict mode, DEGRADED
// writes), and a compute error saves nothing. A nil store computes
// every time and never hits.
func (s *Store) Profile(name string, p *prog.Program, insts uint64, compute func() (*profile.Profile, error)) (pr *profile.Profile, hit bool, err error) {
	var hash string
	if s != nil {
		hash = ProgramHash(p)
		if pr, hit, err = s.LoadProfile(name, hash, insts); err != nil || hit {
			return pr, hit, err
		}
	}
	if pr, err = compute(); err != nil || s == nil {
		return pr, false, err
	}
	return pr, false, s.SaveProfile(name, hash, insts, pr)
}

// Trace is Profile for the dynamic trace of p under (name, budget). A
// hit is attached to p; the caller closes the returned trace. compute
// must return a trace of p: p is hashed once, and the load and the save
// both use that key.
func (s *Store) Trace(name string, p *prog.Program, budget uint64, compute func() (*dyntrace.Trace, error)) (t *dyntrace.Trace, hit bool, err error) {
	var path string
	if s != nil {
		path = s.tracePath(name, ProgramHash(p), budget)
		if t, hit, err = s.loadTrace(path, p); err != nil || hit {
			return t, hit, err
		}
	}
	if t, err = compute(); err != nil || s == nil {
		return t, false, err
	}
	return t, false, s.saveArtifact(path, t.Save)
}

// saveArtifact is atomicWrite plus the degradation policy for writes: a
// store that cannot persist an artifact has lost durability, not
// correctness, so a non-strict store logs a greppable "store: DEGRADED"
// warning and lets the run continue uncached.
func (s *Store) saveArtifact(path string, write func(io.Writer) error) error {
	err := s.atomicWrite(path, write)
	if err == nil || s.strict {
		return err
	}
	fmt.Fprintf(s.log, "store: DEGRADED: %v; continuing without caching %s\n", err, filepath.Base(path))
	return nil
}

// atomicWrite commits write()'s bytes with faultinject.CommitFile,
// retrying the whole attempt with a fresh temp file on transient faults.
// It takes no lock: concurrent writers of one path each rename their own
// temp file into place, and all of them install the same bytes.
func (s *Store) atomicWrite(path string, write func(w io.Writer) error) error {
	return faultinject.Retry(func() error {
		if err := faultinject.CommitFile(s.fs, path, write); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	})
}
