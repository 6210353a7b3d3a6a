package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"

	"perfclone/internal/faultinject"
	"perfclone/internal/recordlog"
)

// checkpointVersion guards the record format; bump it when a record's
// shape changes incompatibly. v2 added the per-record CRC; v3 moved the
// log onto recordlog, which stores the cell name under "op".
const checkpointVersion = 3

// Checkpoint is an append-only recordlog of completed grid cells for one
// experiment stage: each record's key is the cell and its data the full
// result row, so a resumed run can reuse the row verbatim and render
// byte-identical figures. Mark is safe for concurrent use by the worker
// pool; each line is written in one critical section and flushed to the
// OS before the cell counts as done, so a SIGINT between cells never
// loses a recorded cell. A crash (or an injected torn write) can leave
// partial lines anywhere in the file; load drops them individually and
// the affected cells simply recompute.
type Checkpoint struct {
	stage string
	st    *Store

	mu   sync.Mutex
	f    faultinject.File
	log  *recordlog.Writer
	done map[string]json.RawMessage
}

// OpenCheckpoint opens the per-stage cell log. With resume set, existing
// records are loaded and served by Done; otherwise the log is truncated
// and the stage starts from scratch. Torn, bit-flipped, or otherwise
// unparseable lines are dropped (their cells recompute); a checkpoint
// file that cannot be read at all is quarantined and the stage starts
// empty, unless the store is strict.
func (s *Store) OpenCheckpoint(stage string, resume bool) (*Checkpoint, error) {
	path := filepath.Join(s.dir, "checkpoints", sanitize(stage)+".jsonl")
	cp := &Checkpoint{stage: stage, st: s, done: make(map[string]json.RawMessage)}
	var tornTail bool
	if resume {
		var err error
		if tornTail, err = cp.load(path); err != nil {
			if s.strict {
				return nil, err
			}
			s.quarantine(path, err)
			cp.done = make(map[string]json.RawMessage)
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	var f faultinject.File
	err := faultinject.Retry(s.retry, func() error {
		var err error
		f, err = s.fs.OpenFile(path, flags, 0o644)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", stage, err)
	}
	cp.f, cp.log = f, recordlog.NewWriter(f, tornTail)
	return cp, nil
}

// load reads existing records into the done map, skipping lines that are
// torn, corrupt, or fail their CRC, and reports whether the file ends in
// a torn append.
func (cp *Checkpoint) load(path string) (tornTail bool, err error) {
	var dropped int
	err = cp.st.readArtifact(path, func(r io.Reader) error {
		done := make(map[string]json.RawMessage)
		var err error
		dropped, tornTail, err = recordlog.Scan(r, checkpointVersion, func(rec recordlog.Record) bool {
			done[rec.Key] = rec.Data
			return true
		})
		if err != nil {
			return err
		}
		cp.done = done
		return nil
	})
	if errors.Is(err, iofs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: checkpoint %s: %w", cp.stage, err)
	}
	if dropped > 0 {
		fmt.Fprintf(cp.st.log, "store: checkpoint %s: dropped %d torn or corrupt line(s); those cells recompute\n",
			cp.stage, dropped)
	}
	return tornTail, nil
}

// Done returns the recorded result for cell, if the cell finished in a
// previous (or the current) run.
func (cp *Checkpoint) Done(cell string) (json.RawMessage, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	raw, ok := cp.done[cell]
	return raw, ok
}

// Len is the number of recorded cells.
func (cp *Checkpoint) Len() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.done)
}

// Mark records cell's result row. The line is written to the OS before
// Mark returns, so a subsequent SIGINT cannot lose a completed cell.
// Transient write failures retry; if an attempt tears mid-line, the next
// write leads with a newline so the torn bytes isolate to their own
// (droppable) line instead of corrupting the neighbor record.
func (cp *Checkpoint) Mark(cell string, row any) error {
	return cp.MarkContext(context.Background(), cell, row)
}

// MarkContext is Mark bounded by ctx: a context that dies before the
// first write attempt stops the append entirely, and the backoff sleeps
// between retries are cut short, so a cell whose deadline has expired
// never lingers in the write path. A write attempt already in flight is
// never interrupted mid-line by cancellation — only process death can
// tear a line, and the JSONL loader drops torn tails — preserving the
// invariant that a valid-CRC record always describes a complete cell.
func (cp *Checkpoint) MarkContext(ctx context.Context, cell string, row any) error {
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	line, err := recordlog.Line(checkpointVersion, cell, data)
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.done[cell] = data
	err = faultinject.RetryContext(ctx, cp.st.retry, func() error { return cp.log.Write(line) })
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	return nil
}

// Close closes the log file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if err := cp.f.Close(); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", cp.stage, err)
	}
	return nil
}
