package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWarmupDefaultFitsBudget: without -warmup, a budget the 150000
// default would consume gets insts/4 of warmup, so statistics cover only
// the timed remainder; an explicit -warmup that consumes the budget is a
// usage error (exit 2).
func TestWarmupDefaultFitsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the simrun binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "simrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-workload", "crc32", "-insts", "100000").Output()
	if err != nil {
		t.Fatalf("simrun -insts 100000: %v", err)
	}
	if !strings.Contains(string(out), "insts:     75000 over") {
		t.Fatalf("defaulted warmup must be insts/4 (75000 timed instructions), got:\n%s", out)
	}

	err = exec.Command(bin, "-workload", "crc32", "-insts", "100000", "-warmup", "100000").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("explicit -warmup >= -insts: %v, want exit status 2", err)
	}
}
