package bpred

import (
	"testing"
	"testing/quick"
)

// train runs a direction sequence through a predictor and returns the
// misprediction rate.
func train(p Predictor, pc uint64, seq func(i int) bool, n int) float64 {
	miss := 0
	for i := 0; i < n; i++ {
		taken := seq(i)
		if p.Predict(pc) != taken {
			miss++
		}
		p.Update(pc, taken)
	}
	return float64(miss) / float64(n)
}

func TestStaticPredictors(t *testing.T) {
	alwaysTaken := func(int) bool { return true }
	if m := train(NotTaken{}, 0, alwaysTaken, 100); m != 1 {
		t.Errorf("not-taken on all-taken: %f", m)
	}
	if m := train(Taken{}, 0, alwaysTaken, 100); m != 0 {
		t.Errorf("taken on all-taken: %f", m)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(1024)
	if m := train(p, 0x4000, func(int) bool { return true }, 1000); m > 0.01 {
		t.Errorf("bimodal on constant-taken: %f", m)
	}
	p = NewBimodal(1024)
	// 90% taken: bimodal should approach the 10% floor.
	s := uint64(7)
	if m := train(p, 0x4000, func(int) bool {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s%10 != 0
	}, 5000); m > 0.2 {
		t.Errorf("bimodal on 90%% bias: %f", m)
	}
}

func TestGApLearnsPeriodicPatterns(t *testing.T) {
	for _, period := range []int{2, 4, 8} {
		p := NewGAp(512, 8)
		m := train(p, 0x8000, func(i int) bool { return i%period != 0 }, 4000)
		if m > 0.05 {
			t.Errorf("GAp on period-%d loop pattern: mispredict %f", period, m)
		}
	}
}

func TestGApBeatsBimodalOnAlternating(t *testing.T) {
	alt := func(i int) bool { return i%2 == 0 }
	g := train(NewGAp(512, 8), 0x100, alt, 2000)
	bm := train(NewBimodal(1024), 0x100, alt, 2000)
	if g > 0.05 {
		t.Errorf("GAp on alternating: %f", g)
	}
	if bm < 0.4 {
		t.Errorf("bimodal should thrash on alternating, got %f", bm)
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	p := NewGShare(4096, 12)
	if m := train(p, 0x300, func(i int) bool { return i%4 != 0 }, 4000); m > 0.05 {
		t.Errorf("gshare on period-4: %f", m)
	}
}

func TestRandomSequenceFloor(t *testing.T) {
	// No predictor beats ~12.5% on an iid 87.5%-taken stream, and none
	// should do much worse than ~2x that after warmup.
	s := uint64(99)
	seq := func(int) bool {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return (s*0x2545f4914f6cdd1d)%8 != 0
	}
	for _, p := range []Predictor{NewGAp(512, 8), NewBimodal(1024), NewGShare(4096, 12)} {
		m := train(p, 0x900, seq, 20000)
		if m < 0.08 || m > 0.30 {
			t.Errorf("%T on iid 0.875: %f (should be near the 0.125 floor)", p, m)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"gap", "not-taken", "taken", "bimodal", "gshare"} {
		p, err := ByName(name)
		if err != nil || p == nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("perceptron"); err == nil {
		t.Error("unknown predictor must error")
	}
}

func TestPredictorsAreDeterministic(t *testing.T) {
	fn := func(seed uint64, pcs []uint8) bool {
		run := func() uint64 {
			p := NewGAp(512, 8)
			s := seed | 1
			var sig uint64
			for i, pcb := range pcs {
				pc := uint64(pcb) * 8
				s ^= s >> 12
				s ^= s << 25
				s ^= s >> 27
				taken := s%3 == 0
				if p.Predict(pc) {
					sig |= 1 << (uint(i) % 64)
				}
				p.Update(pc, taken)
			}
			return sig
		}
		return run() == run()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTableSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two table must panic")
		}
	}()
	NewBimodal(1000)
}
