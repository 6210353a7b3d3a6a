// Package cache implements the set-associative cache simulator used for
// the paper's cache design studies (Section 5.1's 28 configurations) and
// as the memory hierarchy of the timing simulator (internal/uarch).
package cache

import (
	"context"
	"fmt"
	"math"
	"slices"

	"perfclone/internal/supervise"
)

// Config describes one cache.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity; 0 means fully associative.
	Assoc int
	// LineSize is the block size in bytes (power of two).
	LineSize int
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache: bad size/line %d/%d", c.Size, c.LineSize)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	if c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.Size, c.LineSize)
	}
	lines := c.Size / c.LineSize
	assoc := c.Assoc
	if assoc == 0 {
		assoc = lines
	}
	if assoc < 0 || lines%assoc != 0 {
		return fmt.Errorf("cache: associativity %d incompatible with %d lines", c.Assoc, lines)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// String renders the geometry, e.g. "4KB/2-way/32B".
func (c Config) String() string {
	assoc := "full"
	if c.Assoc > 0 {
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s/%s/%dB", sizeStr(c.Size), assoc, c.LineSize)
}

func sizeStr(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Stats accumulates access counts.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate is Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is one level of set-associative cache with true-LRU replacement
// (the policy the paper fixes for all 28 configurations).
type Cache struct {
	sets      [][]line
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets, ways := cfg.geometry()
	c := &Cache{
		sets:      make([][]line, nsets),
		setMask:   uint64(nsets - 1),
		lineShift: log2(uint64(cfg.LineSize)),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, ways)
	}
	return c, nil
}

// geometry returns a valid configuration's set count and associativity
// (a fully associative cache is one set of every line).
func (c Config) geometry() (sets, ways int) {
	lines := c.Size / c.LineSize
	ways = c.Assoc
	if ways == 0 {
		ways = lines
	}
	return lines / ways, ways
}

// MustNew is New that panics on invalid configurations (for statically
// known-good tables).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps the cache contents — used at
// the end of a measurement warmup phase.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// lookup finds the way of set holding tag, or -1.
func lookup(set []line, tag uint64) int {
	for wi := range set {
		if set[wi].valid && set[wi].tag == tag {
			return wi
		}
	}
	return -1
}

// Access simulates one access. It returns true on hit. A miss allocates
// the line (write-allocate); dirty evictions count as writebacks.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.lineShift
	set := c.sets[tag&c.setMask]
	if wi := lookup(set, tag); wi >= 0 {
		set[wi].lru = c.clock
		if write {
			set[wi].dirty = true
		}
		return true
	}
	c.stats.Misses++
	c.fill(set, tag, write)
	return false
}

// fill puts tag's line in set's victim way, counting a writeback when the
// line it replaces is dirty.
func (c *Cache) fill(set []line, tag uint64, dirty bool) {
	victim := c.victim(set)
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
}

// victim picks the way to replace: an invalid way if any, else the least
// recently used.
func (c *Cache) victim(set []line) int {
	for wi := range set {
		if !set[wi].valid {
			return wi
		}
	}
	victim := 0
	for wi := range set {
		if set[wi].lru < set[victim].lru {
			victim = wi
		}
	}
	return victim
}

// Prefetch inserts addr's line without touching the demand statistics
// (used by the timing simulator's sequential prefetcher). It returns true
// when the line was already resident.
func (c *Cache) Prefetch(addr uint64) bool {
	c.clock++
	tag := addr >> c.lineShift
	set := c.sets[tag&c.setMask]
	if wi := lookup(set, tag); wi >= 0 {
		set[wi].lru = c.clock
		return true
	}
	c.fill(set, tag, false)
	return false
}

// Sweep28 returns the paper's 28 L1 data cache configurations: sizes 256 B
// through 16 KB in powers of two, each direct-mapped, 2-way, 4-way, and
// fully associative, with 32-byte lines and LRU (Section 5.1).
func Sweep28() []Config {
	var out []Config
	for size := 256; size <= 16*1024; size *= 2 {
		for _, assoc := range []int{1, 2, 4, 0} {
			cfg := Config{Size: size, Assoc: assoc, LineSize: 32}
			cfg.Name = cfg.String()
			out = append(out, cfg)
		}
	}
	return out
}

// ReplaySet simulates one address stream against many LRU configurations
// at once — the workhorse of the Figure 4/5 experiments, which need 28
// cache simulations per program.
//
// It does not keep a cache per configuration. LRU has the inclusion
// property (Mattson et al., 1970): the lines resident in a set of an
// A-way LRU cache are exactly the A most recently used lines that map to
// that set. Configurations that share a line size and a set count
// therefore differ only in how deep they cut one per-set recency stack,
// and one walk of that stack serves them all (Hill & Smith, 1989).
// NewReplaySet groups the configurations by (line size, set count) —
// Sweep28's 28 caches form 10 groups — and each reference is found once
// per group, at stack depth d: it hits in every A-way cache with A > d
// and misses in the rest.
//
// Writebacks are exact too. A line dirty in an A-way cache is dirty in
// every larger cache of its group, since the larger cache has held it at
// least as long and so has seen every store the smaller one saw. Each
// stacked line therefore carries dirtyFrom, the smallest associativity
// in which it is dirty: a store sets it to 1, a load at depth d raises
// it to at least d+1 (caches of at most d ways refilled the line clean),
// and when the line sinks from depth A-1 to A — its eviction from the
// A-way cache — that cache writes it back if dirtyFrom ≤ A.
//
// Every configuration's Stats are bit-identical to those of a Cache fed
// the same stream.
type ReplaySet struct {
	groups []*stackGroup
	slots  []slot // one per configuration, in input order
}

// slot locates one configuration's counters: its group, and the index of
// its associativity in the group's ways.
type slot struct{ group, way int }

// stackGroup is the LRU stack of every configuration with one line size
// and set count.
type stackGroup struct {
	lineShift uint
	setMask   uint64
	depth     int   // stack depth per set: the largest associativity
	ways      []int // the associativities, ascending and distinct
	// stack holds set s's lines, most recent first, at
	// [s*depth, s*depth+fill[s]).
	stack []stacked
	fill  []int32
	// resident holds every stacked tag when depth > shallowDepth, so a
	// reference found in none of a set's top shallowDepth lines is looked
	// up instead of scanned for.
	resident map[uint64]struct{}
	// depthHist[d] counts references found at depth d; depthHist[depth]
	// counts those not stacked at all.
	depthHist  []uint64
	writebacks []uint64 // per ways entry
}

// stacked is one line in a set's LRU stack.
type stacked struct {
	tag uint64
	// dirtyFrom is the smallest associativity whose cache holds the line
	// dirty; clean when none does.
	dirtyFrom int32
}

// shallowDepth is how many lines of a set's stack are scanned before the
// residency map is consulted: hits cluster near the top, and below this
// depth a scan is cheaper than hashing.
const shallowDepth = 16

// clean is dirtyFrom for a line dirty in no configuration.
const clean = math.MaxInt32

// NewReplaySet groups the configurations cfgs by line size and set
// count. It rejects invalid configurations.
func NewReplaySet(cfgs []Config) (*ReplaySet, error) {
	type geom struct{ line, sets int }
	byGeom := map[geom]int{}
	rs := &ReplaySet{slots: make([]slot, len(cfgs))}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		sets, ways := cfg.geometry()
		key := geom{cfg.LineSize, sets}
		gi, ok := byGeom[key]
		if !ok {
			gi = len(rs.groups)
			byGeom[key] = gi
			rs.groups = append(rs.groups, &stackGroup{
				lineShift: log2(uint64(cfg.LineSize)),
				setMask:   uint64(sets - 1),
			})
		}
		g := rs.groups[gi]
		if !slices.Contains(g.ways, ways) {
			g.ways = append(g.ways, ways)
		}
		rs.slots[i] = slot{group: gi, way: ways} // way becomes an index below
	}
	for _, g := range rs.groups {
		slices.Sort(g.ways)
		g.depth = g.ways[len(g.ways)-1]
		sets := int(g.setMask) + 1
		g.stack = make([]stacked, sets*g.depth)
		g.fill = make([]int32, sets)
		if g.depth > shallowDepth {
			g.resident = make(map[uint64]struct{}, sets*g.depth)
		}
		g.depthHist = make([]uint64, g.depth+1)
		g.writebacks = make([]uint64, len(g.ways))
	}
	for i, s := range rs.slots {
		rs.slots[i].way = slices.Index(rs.groups[s.group].ways, s.way)
	}
	return rs, nil
}

// access moves addr's line to the top of its set's stack, counting the
// reference's depth and the writebacks of the dirty lines it pushes out
// of each configuration.
func (g *stackGroup) access(addr uint64, write bool) {
	tag := addr >> g.lineShift
	set := int(tag & g.setMask)
	n := int(g.fill[set])
	st := g.stack[set*g.depth : (set+1)*g.depth]
	if n > 0 && st[0].tag == tag {
		// The most recent line again: it hits everywhere and nothing
		// moves. dirtyFrom is already at least 1.
		g.depthHist[0]++
		if write {
			st[0].dirtyFrom = 1
		}
		return
	}
	d := g.depthOf(st[:n], tag)

	// The lines above depth d each sink one place; the one crossing from
	// depth A-1 to A leaves the A-way cache.
	for k, a := range g.ways {
		if a > d {
			break
		}
		if st[a-1].dirtyFrom <= int32(a) {
			g.writebacks[k]++
		}
	}
	from := int32(clean)
	sink := d
	switch {
	case d < n:
		g.depthHist[d]++
		from = max(st[d].dirtyFrom, int32(d+1))
	case n == g.depth:
		g.depthHist[g.depth]++
		sink = n - 1 // the bottom line leaves the stack
		if g.resident != nil {
			delete(g.resident, st[sink].tag)
		}
	default:
		g.depthHist[g.depth]++
		g.fill[set]++
	}
	if d == n && g.resident != nil {
		g.resident[tag] = struct{}{}
	}
	copy(st[1:sink+1], st[:sink])
	if write {
		from = 1
	}
	st[0] = stacked{tag: tag, dirtyFrom: from}
}

// depthOf returns tag's depth in the stack st, or len(st) when absent.
func (g *stackGroup) depthOf(st []stacked, tag uint64) int {
	top := st[:min(len(st), shallowDepth)]
	for i := range top {
		if top[i].tag == tag {
			return i
		}
	}
	if len(st) == len(top) {
		return len(st)
	}
	if _, ok := g.resident[tag]; !ok {
		return len(st)
	}
	for i := len(top); ; i++ {
		if st[i].tag == tag {
			return i
		}
	}
}

// Access feeds one reference to every configuration.
func (rs *ReplaySet) Access(addr uint64, write bool) {
	for _, g := range rs.groups {
		g.access(addr, write)
	}
}

// accessStreamCheckEvery is how many references AccessStreamContext
// replays between cancellation checks: coarse enough to cost nothing on
// the hot path, fine enough that Ctrl-C interrupts a 28-configuration
// sweep within milliseconds.
const accessStreamCheckEvery = 1 << 16

// AccessStreamContext feeds a packed reference stream — a parallel
// address slice and store bitset (bit i set when addrs[i] is a store),
// such as a dyntrace Walk chunk's Addrs and Stores — to every
// configuration. It walks the stream group by group, so each group's
// stacks stay hot while it consumes the whole stream; the groups are
// independent, so the statistics are identical to interleaved delivery
// via Access. A bitset too short for the address slice is an error, not
// a panic — trace files arrive from disk and may be damaged.
//
// Each group's pass polls ctx every accessStreamCheckEvery references
// and abandons the sweep (returning the context's cancellation cause)
// once it is cancelled. The same cadence ticks any supervision heartbeat
// carried by ctx.
func (rs *ReplaySet) AccessStreamContext(ctx context.Context, addrs []uint64, storeBits []uint64) error {
	if need := (len(addrs) + 63) / 64; len(storeBits) < need {
		return fmt.Errorf("cache: store bitset has %d words for %d references, need %d", len(storeBits), len(addrs), need)
	}
	done := ctx.Done()
	tick := supervise.TickerFrom(ctx)
	for _, g := range rs.groups {
		for base := 0; base < len(addrs); base += accessStreamCheckEvery {
			if done != nil && ctx.Err() != nil {
				return supervise.Cause(ctx)
			}
			if tick != nil {
				tick()
			}
			end := min(base+accessStreamCheckEvery, len(addrs))
			for i := base; i < end; i++ {
				g.access(addrs[i], storeBits[i>>6]>>(uint(i)&63)&1 == 1)
			}
		}
	}
	return nil
}

// Stats returns per-configuration statistics, in input order. An A-way
// configuration misses on every reference found at depth A or deeper.
func (rs *ReplaySet) Stats() []Stats {
	out := make([]Stats, len(rs.slots))
	for i, s := range rs.slots {
		g := rs.groups[s.group]
		ways := g.ways[s.way]
		for d, n := range g.depthHist {
			out[i].Accesses += n
			if d >= ways {
				out[i].Misses += n
			}
		}
		out[i].Writebacks = g.writebacks[s.way]
	}
	return out
}
