package experiments

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildExperimentsCLI compiles cmd/experiments once per test binary and
// returns the path. The crash chaos below needs a real process to
// SIGKILL — in-process cancellation can never tear a write mid-line the
// way the kernel can.
func buildExperimentsCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	cmd := exec.Command("go", "build", "-o", bin, "perfclone/cmd/experiments")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/experiments: %v\n%s", err, out)
	}
	return bin
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// killArgs is the pipeline the crash rounds run: small but real — it
// captures traces, synthesizes clones, replays the fig4 sweep, and
// checkpoints every cell.
func killArgs(storeDir string, resume bool) []string {
	args := []string{
		"-run", "fig4",
		"-workloads", "crc32,qsort",
		"-insts", "100000",
		"-workers", "1",
		"-store", storeDir,
	}
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// TestKillResumeByteIdentical is the process-level crash harness: run
// cmd/experiments as a subprocess, SIGKILL it at a randomized point
// (seed printed and overridable via PERFCLONE_KILL_SEED so any failure
// replays exactly), resume with -resume against the survived store, and
// require the resumed figures to be byte-identical to an uninterrupted
// run. PERFCLONE_KILL_ROUNDS raises the round count (CI runs 3).
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash chaos skipped in -short")
	}
	bin := buildExperimentsCLI(t)

	// Reference: one uninterrupted run. Its wall time bounds the kill
	// delays, so kills land anywhere from startup to completion.
	refStore := filepath.Join(t.TempDir(), "ref-store")
	start := time.Now()
	ref, err := exec.Command(bin, killArgs(refStore, false)...).Output()
	refDur := time.Since(start)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no output")
	}

	seed := uint64(time.Now().UnixNano())
	if env := os.Getenv("PERFCLONE_KILL_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("PERFCLONE_KILL_SEED: %v", err)
		}
		seed = v
	}
	rounds := 1
	if env := os.Getenv("PERFCLONE_KILL_ROUNDS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("PERFCLONE_KILL_ROUNDS: bad value %q", env)
		}
		rounds = v
	}
	t.Logf("kill-resume chaos: seed %d (set PERFCLONE_KILL_SEED=%d to replay), %d round(s)", seed, seed, rounds)
	rng := rand.New(rand.NewPCG(seed, 0))

	for round := 0; round < rounds; round++ {
		storeDir := filepath.Join(t.TempDir(), fmt.Sprintf("store-%d", round))
		delay := time.Duration(rng.Int64N(int64(refDur) + 1))
		t.Logf("round %d: SIGKILL after %v (reference ran %v)", round, delay, refDur)

		victim := exec.Command(bin, killArgs(storeDir, false)...)
		victim.Stdout = nil // discarded; only the resumed run's output matters
		if err := victim.Start(); err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(delay, func() { victim.Process.Kill() })
		victim.Wait() // killed (or finished first — both are valid rounds)
		timer.Stop()

		resumed, err := exec.Command(bin, killArgs(storeDir, true)...).Output()
		if err != nil {
			var stderr []byte
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = ee.Stderr
			}
			t.Fatalf("round %d: resume run: %v\n%s", round, err, stderr)
		}
		if !bytes.Equal(resumed, ref) {
			t.Errorf("round %d: resumed output differs from uninterrupted run (seed %d, delay %v)",
				round, seed, delay)
		}
	}
}

// TestWedgedWorkerSubprocessRecovers is the issue's end-to-end
// acceptance check: a deliberately wedged fig4 worker (PERFCLONE_WEDGE
// stops its heartbeats) must be detected by the -watchdog monitor,
// killed, retried, and the process must exit 0 with the greppable
// supervise: STUCK / RECOVERED lines on stderr — and the figures must
// match a clean run byte for byte.
func TestWedgedWorkerSubprocessRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	bin := buildExperimentsCLI(t)
	args := []string{"-run", "fig4", "-workloads", "crc32,qsort", "-insts", "100000", "-workers", "1"}

	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	wedged := exec.Command(bin, append(args, "-watchdog", "2s", "-task-retries", "1")...)
	wedged.Env = append(os.Environ(), "PERFCLONE_WEDGE=fig4/crc32")
	var stdout, stderr bytes.Buffer
	wedged.Stdout, wedged.Stderr = &stdout, &stderr
	if err := wedged.Run(); err != nil {
		t.Fatalf("wedged run exited non-zero: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{"supervise: WEDGE", "supervise: STUCK", "supervise: RECOVERED"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "supervise: tasks") {
		t.Errorf("stderr missing run-summary line:\n%s", stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), ref) {
		t.Error("wedged-then-recovered figures differ from the clean run")
	}
}

// TestStageTimeoutSubprocessExits124 pins the new exit-code contract: a
// stage budget far below the work makes the process exit 124 (not 1,
// not 130) with the deadline named on stderr.
func TestStageTimeoutSubprocessExits124(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	bin := buildExperimentsCLI(t)
	cmd := exec.Command(bin, "-run", "fig4", "-workloads", "crc32", "-workers", "1", "-stage-timeout", "1ms")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("err = %v, want an exit error", err)
	}
	if code := ee.ExitCode(); code != 124 {
		t.Fatalf("exit code = %d, want 124\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stage deadline exceeded") {
		t.Errorf("stderr missing deadline message:\n%s", stderr.String())
	}
}

// TestUnknownRunSubprocessExits2: an unknown -run name is a usage error
// caught before any work — exit 2, nothing on stdout, no store opened —
// and the message lists every registry name.
func TestUnknownRunSubprocessExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	bin := buildExperimentsCLI(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	cmd := exec.Command(bin, "-run", "fig99", "-workloads", "crc32", "-store", storeDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit code 2\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
	}
	if want := strings.Join(RunNames(), "|"); !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not list the registry (%s):\n%s", want, stderr.String())
	}
	if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
		t.Errorf("store opened before the run name was checked: %v", err)
	}
}
