// Command perfbench is the repository benchmark. It drives the cloning
// pipeline's public entry points from one process, checks every output,
// and prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.py):
//
//	perfbench --workload figures|ingest|clone --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every layer call and reports the per-layer
// breakdown instead. See perfbench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is the state shared by one benchmark run.
type bench struct {
	ctx     context.Context
	seed    int64
	rng     *rand.Rand
	seconds time.Duration
	nproc   int
	tr      *tracer
	// work is this run's scratch directory; it is removed at exit.
	work string

	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fail counts one failed operation and says why on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{v, unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metric{v, unit}
}

var workloadRuns = map[string]func(*bench) error{
	"figures": runFigures,
	"ingest":  runIngest,
	"clone":   runClone,
}

func main() {
	workload := flag.String("workload", "", "figures, ingest or clone")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloadRuns[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload figures|ingest|clone --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		ctx:     context.Background(),
		seed:    *seed,
		rng:     rand.New(rand.NewSource(*seed)),
		seconds: time.Duration(*seconds) * time.Second,
		nproc:   runtime.NumCPU(),
		tr:      newTracer(*traceFlag == 1),
		work:    work,
		e2e:     make(map[string]metric),
		layer:   make(map[string]metric),
	}
	host := hostFacts()
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", hostJSON)

	err = run(b)
	if err == nil && b.tr.on {
		err = probeLayers(b)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	metrics := b.e2e
	if b.tr.on {
		b.setLayer("host.nproc", float64(b.nproc), "count")
		b.setLayer("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
		if metrics, err = b.layerResult(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	out, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// hostFacts records where a result was measured.
func hostFacts() map[string]string {
	facts := map[string]string{
		"cpu":        "unknown",
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				facts["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		facts["kernel"] = strings.TrimSpace(string(raw))
	}
	if raw, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		facts["commit"] = strings.TrimSpace(string(raw))
	}
	return facts
}

// measure calls op until the run's measured time is used up, at least
// once. op returns the time its operation took, which leaves out the
// checks it runs afterwards; measure returns those times and the total
// wall time.
//
// Each operation starts from a collected heap returned to the OS, as a
// fresh CLI process would, and its peak RSS is read on its own;
// peak_rss_mb is the median of those peaks.
func (b *bench) measure(op func() (time.Duration, error)) (times []time.Duration, wall time.Duration, err error) {
	start := time.Now()
	var peaks []float64
	for len(times) == 0 || time.Since(start) < b.seconds {
		debug.FreeOSMemory()
		resetPeakRSS()
		d, err := op()
		if err != nil {
			return nil, 0, err
		}
		peaks = append(peaks, peakRSSMB())
		times = append(times, d)
	}
	wall = time.Since(start)
	var each []string
	for _, d := range times {
		each = append(each, fmt.Sprintf("%.1f", ms(d)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d operation(s), ms each: %s\n", len(times), strings.Join(each, " "))
	sort.Float64s(peaks)
	b.setE2E("peak_rss_mb", (peaks[(len(peaks)-1)/2]+peaks[len(peaks)/2])/2, "MB")
	return times, wall, nil
}

// median of durations.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setup runs fn three times and reports the median duration as
// setup_s. A traced run, which does not report setup_s, runs it once.
// The set-up the last call leaves behind is the one the measured phase
// uses.
func (b *bench) setup(fn func(i int) error) error {
	n := 3
	if b.tr.on {
		n = 1
	}
	var ds []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0))
	}
	b.setE2E("setup_s", median(ds).Seconds(), "s")
	return nil
}

// resetPeakRSS starts a fresh peak-memory window (Linux clear_refs);
// peakRSSMB reads the window's peak. If the reset is refused, the peak
// covers the process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// shuffled returns a seeded permutation of names.
func (b *bench) shuffled(names []string) []string {
	out := append([]string(nil), names...)
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
