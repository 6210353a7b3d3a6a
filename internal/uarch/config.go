// Package uarch is the trace-driven timing simulator — the repository's
// analog of SimpleScalar's sim-outorder, which the paper uses to measure
// IPC. It times a captured dynamic trace (internal/dyntrace) of a
// program's correct path, or a synthetic stream (RunTrace). It models a superscalar pipeline with a reorder buffer, load/store
// queue, limited functional units, a two-level cache hierarchy, and a
// configurable branch predictor, with an in-order issue mode for the
// paper's design change 5.
package uarch

import (
	"fmt"

	"perfclone/internal/cache"
)

// PredictorSpec selects the branch predictor (see bpred.ByName).
type PredictorSpec string

// Config describes one microarchitecture (Table 2 and its variants).
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Width is the fetch = decode = issue = commit width.
	Width int
	// ROBSize is the reorder buffer capacity.
	ROBSize int
	// LSQSize is the load/store queue capacity.
	LSQSize int
	// InOrder forces in-order issue (design change 5).
	InOrder bool
	// Functional units.
	IntALUs   int
	IntMulDiv int
	FPALUs    int
	FPMulDiv  int
	MemPorts  int
	// Predictor selects the branch predictor.
	Predictor PredictorSpec
	// MispredictPenalty is the extra redirect delay after a mispredicted
	// branch resolves.
	MispredictPenalty int
	// NextLinePrefetch fetches line+1 into the L1D on every demand miss
	// (a simple sequential prefetcher; off in the Table 2 base).
	NextLinePrefetch bool
	// Caches.
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	// Latencies (cycles).
	L1Lat  int
	L2Lat  int
	MemLat int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("uarch: bad width/rob/lsq %d/%d/%d", c.Width, c.ROBSize, c.LSQSize)
	}
	if c.IntALUs <= 0 || c.FPALUs <= 0 || c.FPMulDiv <= 0 || c.IntMulDiv <= 0 || c.MemPorts <= 0 {
		return fmt.Errorf("uarch: every functional-unit pool needs at least one unit")
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.L1Lat <= 0 || c.L2Lat <= 0 || c.MemLat <= 0 {
		return fmt.Errorf("uarch: bad latencies %d/%d/%d", c.L1Lat, c.L2Lat, c.MemLat)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("uarch: negative mispredict penalty %d", c.MispredictPenalty)
	}
	return nil
}

// BaseConfig returns the paper's Table 2 base configuration: 1-wide
// out-of-order, 16-entry ROB, 8-entry LSQ, 2 integer ALUs, 1 FP
// multiplier, 1 FP ALU, 2-level GAp predictor, 16 KB 2-way L1 caches with
// 32 B lines, 64 KB 4-way L2 with 64 B lines, 40-cycle memory. Table 2's
// 8-entry fetch queue is not modelled: fetch feeds dispatch directly.
func BaseConfig() Config {
	return Config{
		Name:              "base",
		Width:             1,
		ROBSize:           16,
		LSQSize:           8,
		IntALUs:           2,
		IntMulDiv:         1,
		FPALUs:            1,
		FPMulDiv:          1,
		MemPorts:          1,
		Predictor:         "gap",
		MispredictPenalty: 3,
		L1I:               cache.Config{Name: "L1I", Size: 16 << 10, Assoc: 2, LineSize: 32},
		L1D:               cache.Config{Name: "L1D", Size: 16 << 10, Assoc: 2, LineSize: 32},
		L2:                cache.Config{Name: "L2", Size: 64 << 10, Assoc: 4, LineSize: 64},
		L1Lat:             1,
		L2Lat:             6,
		MemLat:            40,
	}
}

// DesignChange describes one of the paper's Table 3 variations applied to
// the base configuration.
type DesignChange struct {
	// Name matches the Table 3 row.
	Name string
	// Apply transforms the base configuration.
	Apply func(Config) Config
}

// DesignChanges returns the paper's five design changes (Section 5.2).
func DesignChanges() []DesignChange {
	return []DesignChange{
		{
			Name: "double ROB+LSQ",
			Apply: func(c Config) Config {
				c.Name = "2x-rob-lsq"
				c.ROBSize *= 2
				c.LSQSize *= 2
				return c
			},
		},
		{
			Name: "halve L1D",
			Apply: func(c Config) Config {
				c.Name = "half-l1d"
				c.L1D.Size /= 2
				return c
			},
		},
		{
			Name: "double width",
			Apply: func(c Config) Config {
				c.Name = "2x-width"
				c.Width *= 2
				return c
			},
		},
		{
			Name: "not-taken predictor",
			Apply: func(c Config) Config {
				c.Name = "not-taken"
				c.Predictor = "not-taken"
				return c
			},
		},
		{
			Name: "in-order issue",
			Apply: func(c Config) Config {
				c.Name = "in-order"
				c.InOrder = true
				return c
			},
		},
	}
}
