package synth

import (
	"context"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

// BenchmarkProfileCollect measures profiling throughput (the Figure 1
// "workload profiler" box).
func BenchmarkProfileCollect(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		prof, err := profile.CollectContext(context.Background(), p, profile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		insts += prof.TotalInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkGenerate measures clone synthesis (the Figure 1 "workload
// synthesizer" box).
func BenchmarkGenerate(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateContext(context.Background(), prof, Config{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}
