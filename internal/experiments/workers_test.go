package experiments

import "testing"

// TestWorkerBudget pins the outer×sides split: outer parallelism over
// cells is preferred, a cell gets its second (concurrent clone) side
// only when the budget holds two workers per outer goroutine, and the
// product never exceeds the requested total.
func TestWorkerBudget(t *testing.T) {
	cases := []struct {
		name         string
		parallel     bool
		workers      int
		cells        int
		outer, sides int
	}{
		{"serial-run", false, 8, 10, 1, 1},
		{"one-worker", true, 1, 10, 1, 1},
		{"more-cells-than-workers", true, 4, 10, 4, 1},
		{"fewer-cells-than-workers", true, 8, 2, 2, 2},
		{"one-short-of-two-sides", true, 3, 2, 2, 1},
		{"exactly-two-sides", true, 4, 2, 2, 2},
		{"uneven-split", true, 8, 3, 3, 2},
		{"one-cell", true, 8, 1, 1, 2},
		{"budget-not-divisible", true, 6, 4, 4, 1},
		{"zero-cells", true, 8, 0, 8, 1},
	}
	for _, c := range cases {
		opts := Options{Parallel: c.parallel, Workers: c.workers}
		outer, sides := WorkerBudget(opts, c.cells)
		if outer != c.outer || sides != c.sides {
			t.Errorf("%s: WorkerBudget(workers=%d, cells=%d) = (%d, %d), want (%d, %d)",
				c.name, c.workers, c.cells, outer, sides, c.outer, c.sides)
		}
		if total := opts.EffectiveWorkers(); outer*sides > total {
			t.Errorf("%s: outer×sides = %d oversubscribes the budget %d", c.name, outer*sides, total)
		}
	}
	// Workers == 0 with Parallel defers to GOMAXPROCS: the split must
	// still be positive and within budget.
	outer, sides := WorkerBudget(Options{Parallel: true}, 23)
	if outer < 1 || sides < 1 || sides > 2 {
		t.Errorf("defaulted budget produced an invalid split (%d, %d)", outer, sides)
	}
}
