package dyntrace

import (
	"bytes"
	"strings"
	"testing"

	"perfclone/internal/workloads"
)

// TestSaveLoadRoundTrip: every column survives the binary round trip, so
// any replayer sees a bit-identical stream (the uarch replay walk consumes
// only these columns; the uarch golden test pins end-to-end equality).
func TestSaveLoadRoundTrip(t *testing.T) {
	p := loopProgram(t)
	tr, err := Capture(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts() != tr.Insts() || got.Halted() != tr.Halted() || got.NumMem() != tr.NumMem() {
		t.Fatalf("header mismatch: insts %d/%d halted %v/%v mem %d/%d",
			got.Insts(), tr.Insts(), got.Halted(), tr.Halted(), got.NumMem(), tr.NumMem())
	}
	if !equalU32(got.SIDs(), tr.SIDs()) || !equalU64(got.TakenBits(), tr.TakenBits()) ||
		!equalU64(got.MemAddrs(), tr.MemAddrs()) || !equalU64(got.MemStores(), tr.MemStores()) {
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
	tr, err := Capture(p, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), p)
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
	tr, err := Capture(p, 0)
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
		if _, err := Load(bytes.NewReader(mut), p); err == nil {
			t.Errorf("bit flip at offset %d loaded without error", off)
		}
	}
	// Truncation must also fail cleanly.
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2]), p); err == nil {
		t.Error("truncated trace loaded without error")
	}
}

// TestLoadRejectsWrongProgram: attaching a trace to a program other than
// the one it was captured from is a load-time error.
func TestLoadRejectsWrongProgram(t *testing.T) {
	p := loopProgram(t)
	tr, err := Capture(p, 0)
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
	_, err = Load(bytes.NewReader(buf.Bytes()), w.Build())
	if err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("wrong-program load: err=%v", err)
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
