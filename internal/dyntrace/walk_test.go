package dyntrace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"perfclone/internal/workloads"
)

// TestWalkColdEqualsWarm: a captured trace (the cold path), its
// Save→LoadBytes round trip (the warm path, as the store maps it) and a
// FromColumns rebuild of its columns must walk to identical chunks at
// every budget around a chunk edge, and save to identical bytes. This is
// the invariant that lets a result not depend on where its trace came
// from.
func TestWalkColdEqualsWarm(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.Build()
		cold, err := CaptureContext(context.Background(), p, 3*ChunkLen)
		if err != nil {
			t.Fatal(err)
		}
		img := saveBytes(t, cold)
		warm, err := LoadBytes(img, nil, p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		built := FromColumns(p, cold.branch, walkAll(t, cold, 0).addrs, cold.Insts(), cold.Halted())
		for _, tc := range []struct {
			name string
			tr   *Trace
		}{{"loaded", warm}, {"built", built}} {
			name, tr := tc.name, tc.tr
			if !bytes.Equal(saveBytes(t, tr), img) {
				t.Errorf("%s: %s trace saves different bytes than the capture", w.Name, name)
			}
			for _, n := range []uint64{1, ChunkLen - 1, ChunkLen, ChunkLen + 1, cold.Insts()} {
				if err := sameChunks(cold, tr, n); err != nil {
					t.Errorf("%s: %s trace, n=%d: %v", w.Name, name, n, err)
				}
			}
		}
	}
}

// sameChunks walks the first n instructions of a and b in lockstep and
// reports the first chunk on which they differ.
func sameChunks(a, b *Trace, n uint64) error {
	ctx := context.Background()
	wa, wb := a.Walk(n), b.Walk(n)
	for !wa.Done() {
		if wb.Done() {
			return errors.New("second walk ended early")
		}
		ca, err := wa.Next(ctx)
		if err != nil {
			return err
		}
		cb, err := wb.Next(ctx)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ca, cb) {
			return fmt.Errorf("chunks at instruction %d differ", ca.Base)
		}
	}
	if !wb.Done() {
		return errors.New("second walk runs past the first")
	}
	return nil
}

func saveBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
