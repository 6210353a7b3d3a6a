package dyntrace

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"perfclone/internal/workloads"
)

// TestSaveLoadRoundTrip: every column survives the binary round trip, so
// any replayer sees a bit-identical stream (the uarch replay walk consumes
// only these columns; the uarch golden test pins end-to-end equality).
func TestSaveLoadRoundTrip(t *testing.T) {
	p := loopProgram(t)
	tr, err := CaptureContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBytes(buf.Bytes(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts() != tr.Insts() || got.Halted() != tr.Halted() || got.NumMem() != tr.NumMem() {
		t.Fatalf("header mismatch: insts %d/%d halted %v/%v mem %d/%d",
			got.Insts(), tr.Insts(), got.Halted(), tr.Halted(), got.NumMem(), tr.NumMem())
	}
	if !reflect.DeepEqual(walkAll(t, got, 0), walkAll(t, tr, 0)) {
		t.Fatal("column mismatch after round trip")
	}
	if len(got.Statics()) != len(tr.Statics()) {
		t.Fatalf("static table rebuilt with %d entries, capture had %d", len(got.Statics()), len(tr.Statics()))
	}
}

// TestSaveLoadWorkload: round trip on a real workload's bounded capture.
func TestSaveLoadWorkload(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := CaptureContext(context.Background(), p, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBytes(buf.Bytes(), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts() != tr.Insts() || got.NumMem() != tr.NumMem() {
		t.Fatalf("insts %d/%d mem %d/%d", got.Insts(), tr.Insts(), got.NumMem(), tr.NumMem())
	}
}

// TestLoadRejectsCorruption: bit flips anywhere in the payload fail the
// checksum (or a structural check), never load silently.
func TestLoadRejectsCorruption(t *testing.T) {
	p := loopProgram(t)
	tr, err := CaptureContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, off := range []int{0, 5, 12, len(raw) / 2, len(raw) - 3} {
		mut := bytes.Clone(raw)
		mut[off] ^= 0x40
		if _, err := LoadBytes(mut, nil, p); err == nil {
			t.Errorf("bit flip at offset %d loaded without error", off)
		}
	}
	// Truncation must also fail cleanly.
	if _, err := LoadBytes(raw[:len(raw)/2], nil, p); err == nil {
		t.Error("truncated trace loaded without error")
	}
}

// TestLoadRejectsWrongProgram: attaching a trace to a program other than
// the one it was captured from is a load-time error.
func TestLoadRejectsWrongProgram(t *testing.T) {
	p := loopProgram(t)
	tr, err := CaptureContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadBytes(buf.Bytes(), nil, w.Build())
	if err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("wrong-program load: err=%v", err)
	}
}
