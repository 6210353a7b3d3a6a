package uarch

import (
	"context"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/workloads"
)

// BenchmarkTimingSimulation measures the cycle-level simulator's speed in
// simulated instructions per second on the base configuration, replaying
// a trace captured once outside the timed loop.
func BenchmarkTimingSimulation(b *testing.B) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), 200_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := BaseConfig()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := ReplayContext(context.Background(), tr, cfg, Limits{})
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTimingSimulationWide exercises the 4-wide configuration, whose
// larger window makes the scheduler scan more entries per cycle.
func BenchmarkTimingSimulationWide(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), 200_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := BaseConfig()
	cfg.Width = 4
	cfg.ROBSize = 64
	cfg.LSQSize = 32
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := ReplayContext(context.Background(), tr, cfg, Limits{})
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
