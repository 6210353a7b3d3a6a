package dyntrace_test

import (
	"context"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// BenchmarkCapture times a 1M-instruction capture, functional execution
// plus the PCDT encoding, in simulated instructions per second. lame
// runs past the budget and has one of the densest address streams of
// the bundled workloads (0.2 references, 0.58 encoded address bytes per
// instruction); its default clone has ~1400 static instructions, so most
// of its ids take two bytes.
func BenchmarkCapture(b *testing.B) {
	w, err := workloads.ByName("lame")
	if err != nil {
		b.Fatal(err)
	}
	real := w.Build()
	prof, err := profile.CollectContext(context.Background(), real, profile.Options{MaxInsts: profile.DefaultMaxInsts})
	if err != nil {
		b.Fatal(err)
	}
	clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *prog.Program
	}{{"real", real}, {"clone", clone.Program}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var insts uint64
			for i := 0; i < b.N; i++ {
				tr, err := dyntrace.CaptureContext(context.Background(), c.p, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				insts += tr.Insts()
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}
