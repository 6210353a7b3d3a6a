package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perfclone/internal/cache"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
)

// accountLayers are the spans a workload's time is attributed to, each
// reported as <name>_ms: wall time per operation. A workload that never
// calls a layer reports 0 for it.
var accountLayers = []string{
	"experiments.prepare", "experiments.fig3", "experiments.fig4", "experiments.fig6and7",
	"experiments.table3", "experiments.ablation", "experiments.unattributed",
	"ingest.unattributed", "clone.unattributed",
	"workloads.build", "profile.collect", "synth.generate", "fidelity.generate", "codegen.emit",
	"baseline.generate", "dyntrace.capture", "dyntrace.decode", "uarch.replay", "cache.sweep28",
	"store.load_profile", "store.save_profile", "store.load_trace", "store.save_trace",
	"controlapi.post", "jobqueue.queue_wait", "controlapi.execute", "controlapi.notify_lag",
	"controlapi.artifact",
}

// probeLayers' metrics: layer speeds from direct calls on one seeded
// workload (see probe.go), reported by every workload's traced run.
var uarchProbeConfigs = []string{"base", "rob_lsq_x2", "l1d_half", "width_x2", "pred_nottaken", "inorder"}

// cacheMetricName turns a cache.Sweep28 config name into a metric name.
func cacheMetricName(cfg cache.Config) string {
	return "cache." + strings.NewReplacer("/", "_").Replace(cfg.Name) + "_ns_per_ref"
}

type metricDef struct{ name, unit, better string }

// perLayerMetrics lists every metric a traced run reports, in the order
// BENCHMARK.json lists them.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, n := range accountLayers {
		defs = append(defs, metricDef{n + "_ms", "ms", "lower"})
	}
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	add("uarch.minst_per_s", "Minst/s", "higher")
	for _, c := range uarchProbeConfigs {
		add("uarch."+c+"_minst_per_s", "Minst/s", "higher")
	}
	add("uarch.scaling_x", "x", "higher")
	add("cache.sweep28_mref_per_s", "Mref/s", "higher")
	for _, cfg := range cache.Sweep28() {
		add(cacheMetricName(cfg), "ns", "lower")
	}
	add("dyntrace.decode_minst_per_s", "Minst/s", "higher")
	add("dyntrace.capture_minst_per_s", "Minst/s", "higher")
	add("dyntrace.encode_mb_per_s", "MB/s", "higher")
	add("dyntrace.bytes_per_inst", "B", "lower")
	add("funcsim.minst_per_s", "Minst/s", "higher")
	add("profile.minst_per_s", "Minst/s", "higher")
	add("fidelity.check_ms", "ms", "lower")
	add("jobqueue.submit_ms", "ms", "lower")
	add("jobqueue.complete_ms", "ms", "lower")
	for _, n := range []string{"trace_hits", "trace_misses", "profile_hits", "profile_misses", "quarantined"} {
		add("store."+n, "count", "higher")
	}
	add("store_mb", "MB", "lower")
	for _, n := range []string{"recovered", "retried", "stuck_killed"} {
		add("supervise."+n, "count", "lower")
	}
	add("fidelity.attempts", "count", "lower")
	add("clone_first_pass_pct", "%", "higher")
	add("job_p50_ms", "ms", "lower")
	add("job_p90_ms", "ms", "lower")
	add("cache_r", "R", "higher")
	add("ipc_err_pct", "%", "lower")
	add("power_err_pct", "%", "lower")
	add("design_ipc_relerr_pct", "%", "lower")
	add("design_power_relerr_pct", "%", "lower")
	add("tracing_overhead_pct", "%", "lower")
	add("host.nproc", "count", "higher")
	add("host.gomaxprocs", "count", "higher")
	return defs
}

// layerResult fills every per-layer metric the run did not set with 0:
// the workload did not exercise that layer.
func (b *bench) layerResult() (map[string]metric, error) {
	out := make(map[string]metric)
	for _, d := range perLayerMetrics() {
		m, ok := b.layer[d.name]
		if !ok {
			m = metric{0, d.unit}
		}
		out[d.name] = m
	}
	for name := range b.layer {
		if _, ok := out[name]; !ok || out[name].Unit != b.layer[name].Unit {
			return nil, fmt.Errorf("per-layer metric %s is not declared as set", name)
		}
	}
	return out, nil
}

// account collects the wall time attributed to each layer over a
// workload's traced operations.
type account map[string]time.Duration

func (a account) add(name string, d time.Duration) { a[name] += d }

// split attributes wall, the measured wall time of one stage, to the
// layers of derived span id, which repeated the stage's layer calls.
// Each layer gets the time the derived span attributes to it, scaled
// down if the derived calls took longer than the stage itself; what is
// left of wall is the stage's own time, work no layer call covers.
func (a account) split(tr *tracer, stage string, wall time.Duration, id int) {
	layers, _ := tr.attribute(id)
	var covered time.Duration
	for _, d := range layers {
		covered += d
	}
	scale := 1.0
	if covered > wall {
		scale = float64(wall) / float64(covered)
	}
	left := wall
	for name, d := range layers {
		d = time.Duration(scale * float64(d))
		a.add(name, d)
		left -= d
	}
	a.add(stage, max(left, 0))
}

// report sets each layer's <name>_ms per operation and prints the table
// beside the end-to-end time it accounts for.
func (a account) report(b *bench, workload string, total time.Duration, ops int) {
	names := make([]string, 0, len(a))
	var sum time.Duration
	for n, d := range a {
		names = append(names, n)
		sum += d
	}
	sort.Slice(names, func(i, j int) bool { return a[names[i]] > a[names[j]] })
	fmt.Fprintf(os.Stderr, "perfbench: %s layer accounting, ms per operation over %d operation(s):\n", workload, ops)
	per := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   %-28s %10.2f  %5.1f%%\n", n, per(a[n]), 100*float64(a[n])/float64(total))
		b.setLayer(n+"_ms", per(a[n]), "ms")
	}
	fmt.Fprintf(os.Stderr, "perfbench:   %-28s %10.2f  (end to end %.2f)\n", "sum", per(sum), per(total))
}

func (b *bench) storeLayers(c store.Counters, dir string) {
	b.setLayer("store.trace_hits", float64(c.TraceHits), "count")
	b.setLayer("store.trace_misses", float64(c.TraceMisses), "count")
	b.setLayer("store.profile_hits", float64(c.ProfileHits), "count")
	b.setLayer("store.profile_misses", float64(c.ProfileMisses), "count")
	b.setLayer("store.quarantined", float64(c.Quarantined), "count")
	if n, err := dirBytes(dir); err == nil {
		b.setLayer("store_mb", float64(n)/1e6, "MB")
	}
}

func (b *bench) superviseLayers(c supervise.Counts) {
	b.setLayer("supervise.recovered", float64(c.Recovered), "count")
	b.setLayer("supervise.retried", float64(c.Retried), "count")
	b.setLayer("supervise.stuck_killed", float64(c.StuckKilled), "count")
}

// readDigest reads a committed digest file from perfbench/testdata.
func readDigest(name string) (string, error) {
	raw, err := os.ReadFile(filepath.Join("perfbench", "testdata", name))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(raw)), nil
}
