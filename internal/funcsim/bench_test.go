package funcsim_test

import (
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/workloads"
)

// BenchmarkFunctionalSimulation measures simulated instructions per
// second on a representative kernel, with and without an observer.
func BenchmarkFunctionalSimulation(b *testing.B) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := funcsim.New(p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.RunColumns(funcsim.Limits{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkFunctionalSimulationWithObserver adds a per-instruction
// loop over the Event batches RunBatch delivers.
func BenchmarkFunctionalSimulationWithObserver(b *testing.B) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	var memRefs uint64
	obs := func(evs []funcsim.Event) error {
		for i := range evs {
			if evs[i].Inst.Op.IsMem() {
				memRefs++
			}
		}
		return nil
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := funcsim.New(p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.RunBatch(funcsim.Limits{}, obs)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkFunctionalSimulationColumns runs the interpreter with a
// column observer, the form every capture and profile consumes.
func BenchmarkFunctionalSimulationColumns(b *testing.B) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	var memRefs int
	obs := func(c *funcsim.Columns) error {
		memRefs += len(c.Addrs)
		return nil
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := funcsim.New(p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.RunColumns(funcsim.Limits{}, obs)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
