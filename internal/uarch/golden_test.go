package uarch

import (
	"context"
	"reflect"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// runExecuted is the execution-driven reference for the timing model: the
// functional simulator's observer builds each TraceInst straight from the
// executed instruction and feeds the pipeline in streamChunk pieces, with
// no trace in between. The package itself only replays captured traces;
// this reference exists so TestReplayGoldenUarch can prove that capture
// followed by replay times exactly what execution would.
func runExecuted(p *prog.Program, cfg Config, lim Limits) (Stats, error) {
	s, err := newSim(cfg)
	if err != nil {
		return Stats{}, err
	}
	trace := make([]TraceInst, 0, streamChunk)
	var srcBuf [2]isa.Reg
	obs := func(evs []funcsim.Event) error {
		for k := range evs {
			ev := &evs[k]
			in := ev.Inst
			ti := TraceInst{
				PC:    ev.PC,
				Addr:  ev.Addr,
				Class: in.Op.Class(),
				Dest:  in.Dest(),
				Taken: ev.Taken,
			}
			ti.Branch = in.Op.IsBranch()
			ti.Jump = in.Op == isa.OpJmp
			ti.IsMem = ti.Class == isa.ClassLoad || ti.Class == isa.ClassStore
			srcs := in.Sources(srcBuf[:0])
			ti.Src1, ti.Src2 = isa.NoReg, isa.NoReg
			if len(srcs) > 0 {
				ti.Src1 = srcs[0]
			}
			if len(srcs) > 1 {
				ti.Src2 = srcs[1]
			}
			trace = append(trace, ti)
			if len(trace) == cap(trace) {
				s.consume(trace)
				trace = trace[:0]
			}
		}
		return nil
	}
	s.warmup = lim.Warmup
	m, err := funcsim.New(p)
	if err != nil {
		return Stats{}, err
	}
	if _, err := m.RunBatch(funcsim.Limits{MaxInsts: lim.MaxInsts}, obs); err != nil {
		return Stats{}, err
	}
	s.consume(trace)
	return s.finish(), nil
}

// replayProgram captures p's first lim.MaxInsts instructions (0 = to
// completion) and times the trace on cfg.
func replayProgram(tb testing.TB, p *prog.Program, cfg Config, lim Limits) Stats {
	tb.Helper()
	tr, err := dyntrace.CaptureContext(context.Background(), p, lim.MaxInsts)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := ReplayContext(context.Background(), tr, cfg, lim)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// goldenWorkloads pin the replay-equivalence guarantee across distinct
// behaviour classes: streaming (crc32), data-dependent control (qsort),
// and strided/recursive access (fft).
var goldenWorkloads = []string{"crc32", "qsort", "fft"}

// TestReplayGoldenUarch proves the trace-replay timing path is
// bit-identical to the execution-driven reference: every field of Stats
// must match, not just IPC.
func TestReplayGoldenUarch(t *testing.T) {
	base := BaseConfig()
	lim := Limits{Warmup: 50_000, MaxInsts: 150_000}
	for _, name := range goldenWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.CaptureContext(context.Background(), p, lim.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := runExecuted(p, base, lim)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := ReplayContext(context.Background(), tr, base, lim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exec, replay) {
			t.Errorf("%s: replay stats diverge from execution\nexec:   %+v\nreplay: %+v", name, exec, replay)
		}
		if exec.IPC() != replay.IPC() {
			t.Errorf("%s: IPC %v (exec) != %v (replay)", name, exec.IPC(), replay.IPC())
		}
	}
}
