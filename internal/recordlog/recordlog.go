// Package recordlog is the append-only JSONL record log shared by the
// job queue's WAL and the store's experiment checkpoints.
//
// Each line is one Record, {"v":V,"op":KEY,"crc":CRC,"data":DATA}, with
// an IEEE CRC-32 over KEY and the raw DATA bytes. A crash can tear the
// last append, and a failed write can leave a partial line anywhere, so
// the log keeps one torn-tail rule on both sides:
//
//   - Writer leads its next append with a newline whenever the previous
//     write may have stopped mid-line (a failed write that landed some
//     bytes, or a torn tail that Scan found when the log was reopened),
//     so the torn bytes stay on a line of their own;
//   - Scan drops every line that is not a whole record with a valid CRC,
//     one line at a time, and keeps reading: later lines are whole
//     records in their own right.
//
// A whole record of another version is not dropped: Scan stops with an
// error and the caller decides what that means (the WAL refuses to
// start; a checkpoint is quarantined and its cells recompute).
package recordlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Record is one log line. Key names the record — the WAL's op, a
// checkpoint's cell — and is serialized as "op", the name the job WAL's
// on-disk format fixed first.
type Record struct {
	V    int             `json:"v"`
	Key  string          `json:"op"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// checksum is the integrity checksum over one record's key and payload.
func checksum(key string, data []byte) uint32 {
	h := crc32.NewIEEE()
	io.WriteString(h, key)
	h.Write(data)
	return h.Sum32()
}

// Line renders one newline-terminated record. data must be valid JSON,
// as json.Marshal returns it.
func Line(version int, key string, data json.RawMessage) ([]byte, error) {
	line, err := json.Marshal(Record{V: version, Key: key, CRC: checksum(key, data), Data: data})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// Writer appends lines to a log. It is not safe for concurrent use;
// both logs serialize appends under their own mutex.
type Writer struct {
	w    io.Writer
	torn bool // the last write may have stopped mid-line
}

// NewWriter appends to w. torn is Scan's verdict on the existing log:
// true if it ends mid-line.
func NewWriter(w io.Writer, torn bool) *Writer {
	return &Writer{w: w, torn: torn}
}

// Write makes one attempt to append line; callers wrap it in their own
// retry policy. After a torn write the next attempt leads with a newline.
func (w *Writer) Write(line []byte) error {
	buf := line
	if w.torn {
		buf = append([]byte{'\n'}, line...)
	}
	n, err := w.w.Write(buf)
	if err != nil {
		if n > 0 {
			w.torn = true
		}
		return err
	}
	w.torn = false
	return nil
}

// tailReader remembers the last byte it handed out, so Scan can tell
// whether the log ends in a torn (newline-less) record.
type tailReader struct {
	r    io.Reader
	last byte
}

func (t *tailReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.last = p[n-1]
	}
	return n, err
}

// Scan reads every line of r and hands each whole record of the given
// version with a valid CRC to keep, in log order; keep returns false to
// reject a record its caller cannot use, which counts it as dropped.
// The record's Data is a copy, safe to retain. Scan reports how many
// lines it dropped and whether r ends mid-line (tornTail: pass it to
// NewWriter before appending). A whole record of another version stops
// the scan with an error.
func Scan(r io.Reader, version int, keep func(rec Record) bool) (dropped int, tornTail bool, err error) {
	tr := &tailReader{r: r, last: '\n'}
	sc := bufio.NewScanner(tr)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			dropped++ // a torn or mangled line
			continue
		}
		if rec.V != version {
			return dropped, false, fmt.Errorf("record version %d, want %d", rec.V, version)
		}
		if rec.CRC != checksum(rec.Key, rec.Data) || !keep(rec) {
			dropped++
		}
	}
	if err := sc.Err(); err != nil {
		return dropped, false, err
	}
	return dropped, tr.last != '\n', nil
}
