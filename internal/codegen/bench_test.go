package codegen

import (
	"testing"

	"perfclone/internal/prog"
)

// emitSink keeps the benchmarked EmitC calls from being optimized away.
var emitSink string

// BenchmarkEmitC renders the 23 workloads' default clones, one
// operation being all 23, and reports the time per clone.
func BenchmarkEmitC(b *testing.B) {
	var clones []*prog.Program
	for i, p := range goldenPrograms(b) {
		if i%2 == 1 { // goldenPrograms pairs each workload with its clone
			clones = append(clones, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range clones {
			src, err := EmitC(p, Options{})
			if err != nil {
				b.Fatal(err)
			}
			emitSink = src
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(clones)), "ms/clone")
}
