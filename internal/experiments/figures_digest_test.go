package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFiguresDigest pins the bytes of every figure at a small budget:
// `experiments -run all -workloads crc32,qsort,fft -insts 150000` stdout,
// serial and with two workers, must hash to testdata/figures_small.sha256.
// A change to the timing model, the caches, the clone generator or the
// report format moves this digest; it may move only in a change whose
// point is to move figures, and that change commits the new digest.
func TestFiguresDigest(t *testing.T) {
	raw, err := os.ReadFile("testdata/figures_small.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	for _, workers := range []int{0, 2} {
		opts := Options{
			Workloads:   []string{"crc32", "qsort", "fft"},
			TimingInsts: 150_000,
			Parallel:    workers > 0,
			Workers:     workers,
		}
		var out strings.Builder
		if err := Run(context.Background(), "all", opts, &out); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != want {
			t.Errorf("workers=%d: figures digest %s, want %s", workers, got, want)
		}
	}
}
