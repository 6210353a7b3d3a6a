package store

import (
	"context"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// hashSink keeps the benchmarked hash live.
var hashSink string

// BenchmarkProgramHash times the store key of ispell, the workload with
// the largest data image (235 KB, a 523 KB dump), and of its default
// clone, whose dump is mostly instruction text. Every cold and warm
// Prepare hashes each real program and clone it touches.
func BenchmarkProgramHash(b *testing.B) {
	w, err := workloads.ByName("ispell")
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
			b.SetBytes(int64(len(c.p.DumpAsm())))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = ProgramHash(c.p)
			}
		})
	}
}
