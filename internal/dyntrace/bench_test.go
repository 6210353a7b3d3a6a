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
// plus the PCDT encoding, of lame and its default clone (lamePrograms),
// in simulated instructions per second.
func BenchmarkCapture(b *testing.B) {
	for _, c := range lamePrograms(b) {
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

// BenchmarkWalk times the PCDT decode layer: one Walk over a
// 1M-instruction trace of lame and of its default clone, in dynamic
// instructions per second. The walk rebuilds the static ids a basic
// block at a time and decodes each address with its static's stride
// predictor; lame's references nearly all hit it, its clone's mostly
// miss.
func BenchmarkWalk(b *testing.B) {
	ctx := context.Background()
	for _, c := range lamePrograms(b) {
		tr, err := dyntrace.CaptureContext(ctx, c.p, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var insts uint64
			for i := 0; i < b.N; i++ {
				w := tr.Walk(0)
				for !w.Done() {
					ch, err := w.Next(ctx)
					if err != nil {
						b.Fatal(err)
					}
					insts += uint64(len(ch.SIDs))
				}
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

type namedProgram struct {
	name string
	p    *prog.Program
}

// lamePrograms returns lame and its default clone. lame runs past a 1M
// budget and makes 0.2 references per instruction; its clone has ~1400
// static instructions, and two thirds of its references miss the
// stride predictor.
func lamePrograms(b *testing.B) []namedProgram {
	b.Helper()
	w, err := workloads.ByName("lame")
	if err != nil {
		b.Fatal(err)
	}
	real := w.Build()
	return []namedProgram{{"real", real}, {"clone", defaultClone(b, real)}}
}

// defaultClone returns the default clone of p, synthesized from its
// profile at profile.DefaultMaxInsts.
func defaultClone(tb testing.TB, p *prog.Program) *prog.Program {
	tb.Helper()
	prof, err := profile.CollectContext(context.Background(), p, profile.Options{MaxInsts: profile.DefaultMaxInsts})
	if err != nil {
		tb.Fatal(err)
	}
	clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return clone.Program
}
