package cache

import (
	"context"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/workloads"
)

// BenchmarkAccess measures single-cache access throughput.
func BenchmarkAccess(b *testing.B) {
	c := MustNew(Config{Size: 16 << 10, Assoc: 2, LineSize: 32})
	s := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		c.Access((s*0x2545f4914f6cdd1d)%(64<<10), i%4 == 0)
	}
}

// BenchmarkReplaySet28 measures the cost of feeding one reference to all
// 28 sweep configurations at once through Access.
func BenchmarkReplaySet28(b *testing.B) {
	rs, err := NewReplaySet(Sweep28())
	if err != nil {
		b.Fatal(err)
	}
	s := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		rs.Access((s*0x2545f4914f6cdd1d)%(64<<10), i%4 == 0)
	}
}

// BenchmarkReplaySet28Stream measures the Figure 4 inner loop as the
// experiments run it: one captured workload trace's packed data-reference
// stream through AccessStreamContext over all 28 sweep configurations.
func BenchmarkReplaySet28Stream(b *testing.B) {
	w, err := workloads.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := dyntrace.CaptureContext(context.Background(), w.Build(), 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	addrs, storeBits := tr.Mem(0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := NewReplaySet(Sweep28())
		if err != nil {
			b.Fatal(err)
		}
		if err := rs.AccessStreamContext(ctx, addrs, storeBits); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(addrs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mref/s")
}
