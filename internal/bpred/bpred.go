// Package bpred implements the branch predictors of the paper's
// experiments: the base 2-level GAp predictor (Table 2), the always
// not-taken predictor of design change 4, and bimodal/gshare/always-taken
// comparators.
package bpred

import "fmt"

// Predictor predicts conditional branch directions and learns outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
}

// counter is a 2-bit saturating counter; ≥2 predicts taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// NotTaken always predicts not taken (design change 4).
type NotTaken struct{}

// Predict implements Predictor.
func (NotTaken) Predict(uint64) bool { return false }

// Update implements Predictor.
func (NotTaken) Update(uint64, bool) {}

// Taken always predicts taken.
type Taken struct{}

// Predict implements Predictor.
func (Taken) Predict(uint64) bool { return true }

// Update implements Predictor.
func (Taken) Update(uint64, bool) {}

// Bimodal is a table of 2-bit counters indexed by PC.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal builds a bimodal predictor with entries counters (power of
// two).
func NewBimodal(entries int) *Bimodal {
	checkPow2(entries)
	return &Bimodal{table: make([]counter, entries), mask: uint64(entries - 1)}
}

func (b *Bimodal) idx(pc uint64) uint64 { return (pc >> 3) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.idx(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.idx(pc)
	b.table[i] = b.table[i].update(taken)
}

// GAp is the paper's base predictor (Table 2): a two-level predictor with
// per-address branch history registers indexing per-address pattern
// tables of 2-bit counters.
type GAp struct {
	histBits int
	hist     []uint64  // per-address history registers
	pht      []counter // per-address pattern tables, concatenated
	addrMask uint64
}

// NewGAp builds a GAp predictor with addrEntries history registers (power
// of two) of histBits bits each.
func NewGAp(addrEntries, histBits int) *GAp {
	checkPow2(addrEntries)
	if histBits <= 0 || histBits > 16 {
		panic(fmt.Sprintf("bpred: bad history bits %d", histBits))
	}
	return &GAp{
		histBits: histBits,
		hist:     make([]uint64, addrEntries),
		pht:      make([]counter, addrEntries<<histBits),
		addrMask: uint64(addrEntries - 1),
	}
}

func (g *GAp) idx(pc uint64) (uint64, uint64) {
	a := (pc >> 3) & g.addrMask
	h := g.hist[a] & ((1 << g.histBits) - 1)
	return a, a<<uint(g.histBits) | h
}

// Predict implements Predictor.
func (g *GAp) Predict(pc uint64) bool {
	_, pi := g.idx(pc)
	return g.pht[pi].taken()
}

// Update implements Predictor.
func (g *GAp) Update(pc uint64, taken bool) {
	a, pi := g.idx(pc)
	g.pht[pi] = g.pht[pi].update(taken)
	g.hist[a] = g.hist[a] << 1
	if taken {
		g.hist[a] |= 1
	}
}

// GShare XORs a global history register with the PC to index one pattern
// table.
type GShare struct {
	histBits int
	hist     uint64
	pht      []counter
	mask     uint64
}

// NewGShare builds a gshare predictor with entries counters (power of
// two) and histBits history bits.
func NewGShare(entries, histBits int) *GShare {
	checkPow2(entries)
	return &GShare{histBits: histBits, pht: make([]counter, entries), mask: uint64(entries - 1)}
}

func (g *GShare) idx(pc uint64) uint64 {
	return ((pc >> 3) ^ g.hist) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.pht[g.idx(pc)].taken() }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.idx(pc)
	g.pht[i] = g.pht[i].update(taken)
	g.hist = (g.hist << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.hist |= 1
	}
}

func checkPow2(n int) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("bpred: table size %d not a power of two", n))
	}
}

// ByName builds a predictor from a short spec string, for CLI tools:
// "gap", "not-taken", "taken", "bimodal", "gshare".
func ByName(name string) (Predictor, error) {
	switch name {
	case "gap":
		return NewGAp(512, 8), nil
	case "not-taken":
		return NotTaken{}, nil
	case "taken":
		return Taken{}, nil
	case "bimodal":
		return NewBimodal(2048), nil
	case "gshare":
		return NewGShare(4096, 12), nil
	default:
		return nil, fmt.Errorf("bpred: unknown predictor %q", name)
	}
}
