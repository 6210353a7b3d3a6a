package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfclone/internal/fidelity"
	"perfclone/internal/profile"
	"perfclone/internal/supervise"
)

// validateOptions are the flags of `clonegen -workload crc32 -validate
// -report R -o O` at their command-line defaults.
func validateOptions(dir string) options {
	return options{
		name: "crc32", dialect: "generic", seed: 1, maxInsts: profile.DefaultMaxInsts,
		validate: true,
		report:   filepath.Join(dir, "report.json"),
		out:      filepath.Join(dir, "clone.c"),
	}
}

func readReport(t *testing.T, path string) fidelity.Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-report not written: %v", err)
	}
	var rep fidelity.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-report is not a fidelity report: %v", err)
	}
	return rep
}

// TestValidatePassWritesCloneAndReport: a gated crc32 clone passes on
// the first attempt, and both the C source and the report are written.
func TestValidatePassWritesCloneAndReport(t *testing.T) {
	o := validateOptions(t.TempDir())
	if err := run(context.Background(), o, supervise.New(supervise.Options{})); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, o.report)
	if !rep.Pass || rep.Attempt != 1 || rep.Workload != "crc32" {
		t.Errorf("report: pass %v at attempt %d for %q, want a first-attempt pass for crc32", rep.Pass, rep.Attempt, rep.Workload)
	}
	src, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatalf("-o not written: %v", err)
	}
	if !strings.Contains(string(src), "crc32_clone") {
		t.Errorf("-o does not hold the clone's C source:\n%.400s", src)
	}
}

// TestValidateFailStillWritesReport: -tolerance scales every bound, so a
// near-zero scale with no repair fails the gate. The run errors and emits
// no clone, but the report that explains the failure is still written,
// and stderr announces no retry, since none follows.
func TestValidateFailStillWritesReport(t *testing.T) {
	o := validateOptions(t.TempDir())
	o.tolerance, o.maxRepair = 1e-9, -1
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = run(context.Background(), o, supervise.New(supervise.Options{}))
	os.Stderr = saved
	if err == nil {
		t.Fatal("near-zero tolerance passed the gate")
	}
	logged, rerr := os.ReadFile(stderr.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.Contains(string(logged), "fidelity: FAIL") || strings.Contains(string(logged), "retrying") {
		t.Errorf("stderr must show the failed check and no retry:\n%s", logged)
	}
	rep := readReport(t, o.report)
	if rep.Pass || rep.Attempt != 1 {
		t.Errorf("report: pass %v at attempt %d, want a failure at attempt 1", rep.Pass, rep.Attempt)
	}
	if _, err := os.Stat(o.out); !os.IsNotExist(err) {
		t.Errorf("a failed gate wrote -o (stat err %v)", err)
	}
}
