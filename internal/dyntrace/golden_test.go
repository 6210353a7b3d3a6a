package dyntrace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"perfclone/internal/workloads"
)

// TestPCDTGolden pins the saved bytes of every workload's trace:
// testdata/pcdt.sha256 holds the SHA-256 of Save(CaptureContext(context.Background(), w.Build(), n))
// for all workloads at n = 20 000 (inside the first walk chunk) and
// n = 200 000 (across three chunk edges). A cold store is made of exactly
// these images, so a change to capture or encoding that moves a single
// byte shows up here before it reaches a stored artifact.
func TestPCDTGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/pcdt.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, w := range workloads.All() {
		p := w.Build()
		for _, n := range []uint64{20_000, 200_000} {
			tr, err := CaptureContext(context.Background(), p, n)
			if err != nil {
				t.Fatal(err)
			}
			var img bytes.Buffer
			if err := tr.Save(&img); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%x  %s/%d", sha256.Sum256(img.Bytes()), w.Name, n))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests computed, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
