package dyntrace

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
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

// TestLoadReplaysPath: LoadBytes replays the path the taken bits spell
// out against the header, so each planted header corruption is caught
// even under a valid CRC (re-stamped after each edit): halted flipped
// either way, an instruction count past the halt, and a reference count
// off by one either way.
func TestLoadReplaysPath(t *testing.T) {
	p := loopProgram(t)
	ctx := context.Background()
	halted, err := CaptureContext(ctx, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := CaptureContext(ctx, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !halted.Halted() || cut.Halted() || halted.Insts()%64 == 0 {
		t.Fatalf("want a halted run that does not fill its last taken word and a cut one: %d/%v, %d/%v",
			halted.Insts(), halted.Halted(), cut.Insts(), cut.Halted())
	}
	// Header fields follow magic, version, the name length and the name.
	off := 8 + 4 + len(p.Name)
	for _, tc := range []struct {
		name string
		tr   *Trace
		edit func(img []byte)
		want string
	}{
		{"halted cleared", halted, func(img []byte) { img[off+8] = 0 }, "halted"},
		{"halted set", cut, func(img []byte) { img[off+8] = 1 }, "halted"},
		{"insts past the halt", halted, func(img []byte) {
			binary.LittleEndian.PutUint64(img[off:], halted.Insts()+1)
		}, "path halted before instruction"},
		{"numMem + 1", halted, func(img []byte) {
			binary.LittleEndian.PutUint64(img[off+9:], halted.NumMem()+1)
		}, "memory references"},
		{"numMem - 1", halted, func(img []byte) {
			binary.LittleEndian.PutUint64(img[off+9:], halted.NumMem()-1)
		}, "memory references"},
	} {
		img := saveBytes(t, tc.tr)
		if _, err := LoadBytes(img, nil, p); err != nil {
			t.Fatalf("%s: unedited image: %v", tc.name, err)
		}
		tc.edit(img)
		binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(img[8:len(img)-4]))
		if _, err := LoadBytes(img, nil, p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadBytes err=%v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
