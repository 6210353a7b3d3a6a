package statsim

import (
	"context"

	"perfclone/internal/bpred"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/prog"
)

// Meter feeds a dynamic instruction stream, in program order, to
// standalone components: each data reference goes down a cache hierarchy,
// and each conditional branch goes to every predictor (predict, then
// update). It is the one feeder behind every standalone measurement:
// statistical simulation's rates, the baseline clone's training targets
// and footprint search, and the ablation's predictor sweep. No timing
// model is involved, so its counts are functions of the stream alone.
type Meter struct {
	cacheCfgs []cache.Config
	predNames []string

	caches   []*cache.Cache
	preds    []bpred.Predictor
	branches uint64
	mispred  []uint64
}

// NewMeter returns a meter over caches, which form a hierarchy (a data
// reference reaches caches[i+1] only on a miss in caches[i]), and the
// predictors named preds (bpred.ByName). Walk and Run each start from
// fresh components, and the results describe that one feed; an invalid
// config or name is their error.
func NewMeter(caches []cache.Config, preds []string) *Meter {
	return &Meter{cacheCfgs: caches, predNames: preds}
}

func (m *Meter) reset() error {
	m.caches, m.preds = nil, nil
	m.branches, m.mispred = 0, make([]uint64, len(m.predNames))
	for _, cfg := range m.cacheCfgs {
		c, err := cache.New(cfg)
		if err != nil {
			return err
		}
		m.caches = append(m.caches, c)
	}
	for _, name := range m.predNames {
		p, err := bpred.ByName(name)
		if err != nil {
			return err
		}
		m.preds = append(m.preds, p)
	}
	return nil
}

// Walk feeds the first n instructions of t (0 = the whole trace). It
// polls ctx and ticks any supervision heartbeat ctx carries once per
// chunk.
func (m *Meter) Walk(ctx context.Context, t *dyntrace.Trace, n uint64) error {
	if err := m.reset(); err != nil {
		return err
	}
	for w := t.Walk(n); !w.Done(); {
		c, err := w.Next(ctx)
		if err != nil {
			return err
		}
		m.feed(t.Statics(), c)
	}
	return nil
}

// Run executes p for up to n instructions as one dyntrace.Stream and
// feeds its chunks, polling ctx as Stream does.
func (m *Meter) Run(ctx context.Context, p *prog.Program, n uint64) error {
	if err := m.reset(); err != nil {
		return err
	}
	_, err := dyntrace.Stream(ctx, p, n, func(static []dyntrace.Static) func(*dyntrace.Chunk) error {
		return func(c *dyntrace.Chunk) error {
			m.feed(static, c)
			return nil
		}
	})
	return err
}

func (m *Meter) feed(static []dyntrace.Static, c *dyntrace.Chunk) {
	if len(m.caches) > 0 {
		for j, a := range c.Addrs {
			store := c.Stores[j>>6]>>(uint(j)&63)&1 == 1
			for _, l := range m.caches {
				if l.Access(a, store) {
					break
				}
			}
		}
	}
	if len(m.preds) == 0 {
		return
	}
	for k, sid := range c.SIDs {
		st := &static[sid]
		if !st.Branch {
			continue
		}
		taken := c.Taken[k>>6]>>(uint(k)&63)&1 == 1
		m.branches++
		for i, p := range m.preds {
			if p.Predict(st.PC) != taken {
				m.mispred[i]++
			}
			p.Update(st.PC, taken)
		}
	}
}

// Cache returns the statistics of caches[i].
func (m *Meter) Cache(i int) cache.Stats { return m.caches[i].Stats() }

// Branches returns the number of conditional branches fed and how many
// of them preds[i] mispredicted.
func (m *Meter) Branches(i int) (lookups, mispredicts uint64) {
	return m.branches, m.mispred[i]
}

// MispredRate returns preds[i]'s misprediction rate: 0 when no branch
// was fed.
func (m *Meter) MispredRate(i int) float64 {
	if m.branches == 0 {
		return 0
	}
	return float64(m.mispred[i]) / float64(m.branches)
}
