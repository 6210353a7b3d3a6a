package store

import (
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"
	"time"

	"perfclone/internal/dyntrace"
	"perfclone/internal/faultinject"
	"perfclone/internal/profile"
)

// staleTempAge is how old a temp file (or a claim file left by an older
// binary) must be before Doctor sweeps it; a live writer's temp file is
// always younger.
const staleTempAge = 10 * time.Minute

// DoctorReport summarizes one verify-and-repair pass over the store.
type DoctorReport struct {
	// Scanned counts artifacts examined (traces + profiles).
	Scanned int
	// Healthy counts artifacts that passed their integrity checks.
	Healthy int
	// Quarantined lists artifacts that failed and were moved to
	// quarantine/ (or deleted if even that failed).
	Quarantined []string
	// Cleaned lists leftovers removed: orphaned temp files from crashed
	// writers and claim files left by older binaries, both older than
	// staleTempAge.
	Cleaned []string
}

// Doctor scans every artifact in the store, re-runs its integrity checks
// (PCDT magic/version/CRC and column shape for traces, JSON structural
// checks for profiles), quarantines everything that fails, and sweeps
// stale temp files and old claim files. It is safe to run against a
// store that a live run is using: in-flight temp files are younger than
// staleTempAge and left alone. Doctor repairs regardless of the
// strict flag — repair is its whole job.
func (s *Store) Doctor() (*DoctorReport, error) {
	rep := &DoctorReport{}
	if err := s.doctorDir(rep, "traces", ".dtr", func(r io.Reader) error {
		return dyntrace.Verify(r)
	}); err != nil {
		return rep, err
	}
	if err := s.doctorDir(rep, "profiles", ".json", func(r io.Reader) error {
		_, err := profile.Load(r)
		return err
	}); err != nil {
		return rep, err
	}
	return rep, nil
}

// doctorDir verifies every artifact with the given extension under one
// store subdirectory and sweeps debris it finds along the way.
func (s *Store) doctorDir(rep *DoctorReport, sub, ext string, verify func(io.Reader) error) error {
	dir := filepath.Join(s.dir, sub)
	var entries []iofs.DirEntry
	err := faultinject.Retry(func() error {
		var err error
		entries, err = s.fs.ReadDir(dir)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: doctor %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		full := filepath.Join(dir, name)
		if strings.Contains(name, ".tmp") || strings.HasSuffix(name, ".lock") {
			s.sweepDebris(rep, full, e)
			continue
		}
		if !strings.HasSuffix(name, ext) {
			continue
		}
		rep.Scanned++
		verr := s.readArtifact(full, verify)
		if verr != nil {
			s.quarantine(full, verr)
			rep.Quarantined = append(rep.Quarantined, full)
			continue
		}
		rep.Healthy++
	}
	return nil
}

// sweepDebris removes a temp file left by a crashed writer, or a claim
// file (<artifact>.lock) left by an older binary that locked its writes,
// but only once it is old enough that no live writer can still own it.
func (s *Store) sweepDebris(rep *DoctorReport, path string, e iofs.DirEntry) {
	info, err := e.Info()
	if err != nil || time.Since(info.ModTime()) < staleTempAge {
		return
	}
	if err := faultinject.Retry(func() error { return s.fs.Remove(path) }); err == nil {
		rep.Cleaned = append(rep.Cleaned, path)
		fmt.Fprintf(s.log, "store: doctor removed stale %s\n", path)
	}
}
