package jobqueue

// The WAL is a recordlog: one {v, op, crc, data} JSON record per line,
// CRC-32 over op+data, torn tails dropped line by line on replay. Its
// bytes on disk are fixed — acknowledged jobs cannot be recomputed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"syscall"

	"perfclone/internal/faultinject"
	"perfclone/internal/recordlog"
)

// walVersion guards the record shape; bump on incompatible change.
const walVersion = 1

// opJob is the only record op today: a full job snapshot. Full
// snapshots (rather than deltas) keep replay a one-pass "last valid
// record per ID wins" scan with no cross-record reconstruction.
const opJob = "job"

// appendLocked journals one job snapshot; callers hold q.mu. With sync
// set the record is fsynced before returning — the durability barrier
// for submissions and terminal transitions.
func (q *Queue) appendLocked(j Job, sync bool) error {
	data, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("jobqueue: job %s: %w", j.ID, err)
	}
	line, err := recordlog.Line(walVersion, opJob, data)
	if err != nil {
		return fmt.Errorf("jobqueue: job %s: %w", j.ID, err)
	}
	err = faultinject.Retry(q.retry, func() error {
		if err := q.wal.Write(line); err != nil || !sync {
			return err
		}
		return q.f.Sync()
	})
	if err != nil {
		return fmt.Errorf("jobqueue: journal job %s: %w", j.ID, err)
	}
	return nil
}

// scanWAL reads every record from path, returning the surviving job
// snapshots in record order (duplicates per ID included — the caller
// applies last-wins), the number of dropped lines, and whether the file
// ends mid-line (a crash tore the final append).
func scanWAL(fsys faultinject.FS, retry faultinject.RetryPolicy, path string) (jobs []Job, dropped int, tornTail bool, err error) {
	err = faultinject.Retry(retry, func() error {
		f, err := fsys.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		jobs = nil
		dropped, tornTail, err = recordlog.Scan(f, walVersion, func(rec recordlog.Record) bool {
			var j Job
			if rec.Key != opJob || json.Unmarshal(rec.Data, &j) != nil || j.ID == "" {
				return false
			}
			jobs = append(jobs, j)
			return true
		})
		if err != nil {
			return fmt.Errorf("jobqueue: %s: WAL %w", path, err)
		}
		return nil
	})
	return jobs, dropped, tornTail, err
}

// ScanWAL replays the WAL at path through the real filesystem and
// returns every surviving job snapshot in record order plus the dropped
// line count. Chaos tests use it to assert replay invariants — e.g. at
// most one terminal record per job (exactly-once commits).
func ScanWAL(path string) ([]Job, int, error) {
	jobs, dropped, _, err := scanWAL(faultinject.OS, faultinject.RetryPolicy{}, path)
	return jobs, dropped, err
}

// syncDir fsyncs a directory so a just-created WAL file survives a
// crash; filesystems that cannot sync a directory handle are tolerated.
func (q *Queue) syncDir(dir string) error {
	d, err := q.fs.Open(dir)
	if err != nil {
		return fmt.Errorf("jobqueue: sync %s: %w", dir, err)
	}
	err = d.Sync()
	d.Close()
	if err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("jobqueue: sync %s: %w", dir, err)
	}
	return nil
}
