package uarch

import (
	"context"

	"perfclone/internal/bpred"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/isa"
	"perfclone/internal/supervise"
)

// streamChunk is the number of TraceInst records fed to the pipeline per
// consume call: the trace walk's chunk length, so replay consumes one
// walk chunk per call. RunTrace uses it too; it is also the cadence at
// which every timing walk polls its context and ticks its supervision
// heartbeat.
const streamChunk = dyntrace.ChunkLen

// Stats is the outcome of a timing run, including the activity counts the
// power model consumes.
type Stats struct {
	Config Config
	// Cycles and Insts give IPC.
	Cycles uint64
	Insts  uint64
	// Branch prediction.
	BranchLookups    uint64
	BranchMispredict uint64
	// Cache statistics.
	L1I cache.Stats
	L1D cache.Stats
	L2  cache.Stats
	// Dynamic instruction classes (for power weighting).
	Classes [isa.NumClasses]uint64
	// Pipeline activity counts.
	Fetched    uint64
	Dispatched uint64
	Issued     uint64
	Committed  uint64
	RegReads   uint64
	RegWrites  uint64
	// Occupancy integrals (entry-cycles) for clock-gated power.
	ROBOccupancy uint64
	LSQOccupancy uint64
	// Prefetches counts next-line prefetch fills (0 when disabled).
	Prefetches uint64
}

// IPC is instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MispredRate is the branch misprediction rate.
func (s Stats) MispredRate() float64 {
	if s.BranchLookups == 0 {
		return 0
	}
	return float64(s.BranchMispredict) / float64(s.BranchLookups)
}

// TraceInst is the per-instruction record the trace front end (expand
// over a trace walk, or RunTrace's generator) hands to the timing back
// end.
type TraceInst struct {
	// PC is the instruction's address (drives I-cache and predictor
	// indexing).
	PC uint64
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Class selects functional unit and latency.
	Class isa.Class
	// Dest, Src1, Src2 are the architected registers (isa.NoReg if
	// absent); they drive the dependence tracking.
	Dest isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg
	// Taken is the resolved direction of a conditional branch.
	Taken bool
	// Branch and Jump classify control instructions.
	Branch bool
	Jump   bool
	// IsMem marks loads and stores (derivable from Class; precomputed so
	// the fetch hot loop reads one flag instead of comparing classes).
	// Producers inside this package set it; RunTrace normalizes records
	// from external generators.
	IsMem bool
}

// robEntry is one in-flight instruction, packed to 40 bytes (vs ~96 for
// the full TraceInst embed it replaced) so commit/issue scans stay in
// cache: only the fields the back end reads after dispatch survive.
// An entry issues and completes in one scheduling event, so a single
// issued flag serves as both the old issued and done bits.
type robEntry struct {
	addr     uint64 // effective address (loads/stores)
	complete uint64 // cycle the result is available
	seq      uint64
	prod1    int32 // ROB index of src1 producer, -1 if ready
	prod2    int32
	class    isa.Class
	dest     isa.Reg
	nsrc     uint8
	issued   bool
	isMem    bool
	branch   bool
}

// Sim runs one program on one configuration.
type Sim struct {
	cfg  Config
	pred bpred.Predictor
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	st   Stats

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int
	lsqCount int

	// numUnissued counts ROB entries awaiting issue; issue() exits
	// immediately when it is zero. headIssued is the length of the
	// contiguous issued prefix at the ROB head, letting issue() start
	// its scan past entries that can only be waiting to commit.
	numUnissued int
	headIssued  int

	regProducer [isa.NumRegs]int32 // ROB index currently producing each reg

	cycle uint64

	// Fetch state.
	fetchBlocked   bool
	fetchResumeAt  uint64
	pendingMispred int // ROB index of the unresolved mispredicted branch
	lastFetchLine  uint64

	// Non-pipelined divider occupancy.
	intDivFree []uint64
	fpDivFree  []uint64

	// Measurement warmup: stats reset once warmup commits are reached.
	warmup      uint64
	committed   uint64
	measureFrom uint64
	seqCounter  uint64

	// stepEveryCycle makes pump simulate every stall cycle instead of
	// jumping over it with fastForward. Only tests set it: it is the
	// reference stall skipping must reproduce bit for bit.
	stepEveryCycle bool
}

// Limits bounds a timing run.
type Limits struct {
	// MaxInsts stops the run after this many dynamic instructions
	// (0 = to completion). It includes the warmup.
	MaxInsts uint64
	// Warmup commits this many instructions before statistics start
	// counting; caches and predictors keep their warmed state. This is
	// the standard fast-forward methodology of SimpleScalar studies.
	Warmup uint64
}

// DefaultWarmup is the warmup a timing run over an insts budget gets
// when none is asked for: 150000 instructions, or insts/4 when 150000
// would consume the whole budget (zero timed instructions would make
// every IPC 0). insts = 0 means an unbounded run.
func DefaultWarmup(insts uint64) uint64 {
	const warmup = 150_000
	if insts != 0 && warmup >= insts {
		return insts / 4
	}
	return warmup
}

// newSim builds a Sim for cfg with empty microarchitectural state.
func newSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pred, err := bpred.ByName(string(cfg.Predictor))
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:            cfg,
		pred:           pred,
		l1i:            cache.MustNew(cfg.L1I),
		l1d:            cache.MustNew(cfg.L1D),
		l2:             cache.MustNew(cfg.L2),
		rob:            make([]robEntry, cfg.ROBSize),
		pendingMispred: -1,
		intDivFree:     make([]uint64, cfg.IntMulDiv),
		fpDivFree:      make([]uint64, cfg.FPMulDiv),
	}
	for i := range s.regProducer {
		s.regProducer[i] = -1
	}
	s.st.Config = cfg
	return s, nil
}

// finish drains the pipeline and closes out the statistics.
func (s *Sim) finish() Stats {
	s.drain()
	s.st.Cycles = s.cycle - s.measureFrom
	s.finalizeStats()
	return s.st
}

// ReplayContext times a captured dynamic trace on cfg. It is
// ReplayMultiWorkers with one configuration and the serial walk: ctx is
// polled at every streamChunk boundary, and a cancelled run returns the
// context's cause (context.Cause — so a watchdog's supervise.ErrStuck or
// a stage deadline's cause survives) with zero Stats. The trace is
// read-only here, so many replays can share one trace concurrently.
func ReplayContext(ctx context.Context, t *dyntrace.Trace, cfg Config, lim Limits) (Stats, error) {
	res, err := ReplayMultiWorkers(ctx, t, []Config{cfg}, lim, 1)
	if err != nil {
		return Stats{}, err
	}
	return res[0], nil
}

// RunTrace times a synthetic instruction stream instead of a program: gen
// is called with i = 0..n-1 and must return the i'th trace record. This is
// the entry point statistical simulation (internal/statsim) uses — no
// functional execution is involved. Like the replay walk it polls ctx and
// ticks any supervision heartbeat once per streamChunk; a cancelled run
// returns the context's cause with zero Stats.
func RunTrace(ctx context.Context, cfg Config, lim Limits, n uint64, gen func(i uint64) TraceInst) (Stats, error) {
	s, err := newSim(cfg)
	if err != nil {
		return Stats{}, err
	}
	s.warmup = lim.Warmup
	if lim.MaxInsts > 0 && n > lim.MaxInsts {
		n = lim.MaxInsts
	}
	tick := supervise.TickerFrom(ctx)
	chunk := make([]TraceInst, streamChunk)
	for base := uint64(0); base < n; base += streamChunk {
		if err := supervise.Cause(ctx); err != nil {
			return Stats{}, err
		}
		if tick != nil {
			tick()
		}
		c := min(n-base, streamChunk)
		for k := range c {
			ti := gen(base + k)
			ti.IsMem = ti.Class == isa.ClassLoad || ti.Class == isa.ClassStore
			chunk[k] = ti
		}
		s.consume(chunk[:c])
	}
	return s.finish(), nil
}

// resetForMeasurement zeroes statistics at the warmup boundary while
// keeping all microarchitectural state (cache contents, predictor
// tables, in-flight instructions).
func (s *Sim) resetForMeasurement() {
	cfg := s.st.Config
	s.st = Stats{Config: cfg}
	s.l1i.ResetStats()
	s.l1d.ResetStats()
	s.l2.ResetStats()
	// The window opens inside the current cycle: the commits later in
	// this cycle are measured, so the cycle counts too, and Cycles×Width
	// bounds Insts.
	s.measureFrom = s.cycle - 1
	s.warmup = 0
}

// consume feeds a chunk of the dynamic stream through the pipeline.
func (s *Sim) consume(trace []TraceInst) {
	s.pump(trace, false)
}

// drain runs the pipeline until every in-flight instruction commits.
func (s *Sim) drain() {
	s.pump(nil, true)
}

// pump is the pipeline's cycle loop. Each iteration is one cycle: retire
// up to Width completed instructions from the ROB head, wake and issue up
// to Width ready instructions bounded by the functional units, then fetch
// and dispatch up to Width instructions from the front of trace. With
// drainAll set it keeps cycling after the trace is exhausted until the
// ROB empties.
//
// It is deliberately one large function. Split into per-stage methods,
// every cycle paid four call boundaries and each stage re-loaded and
// re-stored the clock, ROB cursors, and fetch state through the Sim;
// merged, that per-cycle state lives in locals for the whole chunk and is
// spilled back only at the rare synchronization points (warmup reset,
// stall fast-forward) and on return. The stage order and all per-stage
// semantics are unchanged, so results stay bit-identical to the staged
// version.
func (s *Sim) pump(trace []TraceInst, drainAll bool) {
	cfg := &s.cfg
	width := cfg.Width
	robSize := cfg.ROBSize
	lsqSize := cfg.LSQSize
	inOrder := cfg.InOrder
	lineMask := ^uint64(cfg.L1I.LineSize - 1)
	l1Lat := cfg.L1Lat
	mispredPenalty := uint64(cfg.MispredictPenalty)
	aluLat := isa.ClassIntALU.Latency()
	rob := s.rob

	cycle := s.cycle
	robHead, robTail, robCount := s.robHead, s.robTail, s.robCount
	lsqCount := s.lsqCount
	numUnissued, headIssued := s.numUnissued, s.headIssued
	robOcc, lsqOcc := s.st.ROBOccupancy, s.st.LSQOccupancy
	fetchBlocked, fetchResumeAt := s.fetchBlocked, s.fetchResumeAt
	pendingMispred := s.pendingMispred
	lastFetchLine := s.lastFetchLine
	committedTotal := s.committed
	warmup := s.warmup
	seqCounter := s.seqCounter
	stCommitted, stInsts := s.st.Committed, s.st.Insts
	stIssued := s.st.Issued
	stRegReads, stRegWrites := s.st.RegReads, s.st.RegWrites
	skipStalls := !s.stepEveryCycle

	i := 0
	for i < len(trace) || (drainAll && robCount > 0) {
		cycle++
		robOcc += uint64(robCount)
		lsqOcc += uint64(lsqCount)

		// Commit: retire completed instructions from the ROB head, up to
		// Width per cycle. Stores access the D-cache at commit.
		nCommit := 0
		for nCommit < width && robCount > 0 {
			e := &rob[robHead]
			if !e.issued || e.complete > cycle {
				break
			}
			if e.class == isa.ClassStore {
				s.dcacheAccess(e.addr, true)
			}
			if e.isMem {
				lsqCount--
			}
			if e.dest != isa.NoReg && s.regProducer[e.dest] == int32(robHead) {
				s.regProducer[e.dest] = -1
			}
			stCommitted++
			stInsts++
			s.st.Classes[e.class]++
			robHead++
			if robHead == robSize {
				robHead = 0
			}
			robCount--
			if headIssued > 0 {
				headIssued--
			}
			committedTotal++
			nCommit++
			if warmup > 0 && committedTotal == warmup {
				s.cycle = cycle
				s.st.ROBOccupancy, s.st.LSQOccupancy = robOcc, lsqOcc
				s.st.Committed, s.st.Insts = stCommitted, stInsts
				s.st.Issued = stIssued
				s.st.RegReads, s.st.RegWrites = stRegReads, stRegWrites
				s.resetForMeasurement()
				robOcc, lsqOcc = 0, 0
				stCommitted, stInsts = 0, 0
				stIssued = 0
				stRegReads, stRegWrites = 0, 0
				warmup = 0
			}
		}

		// Issue: wake and select ready instructions, bounded by issue
		// width and functional units. The scan starts past the issued
		// prefix at the head and stops once every unissued entry has been
		// considered.
		nIssue := 0
		if numUnissued > 0 {
			intALU := cfg.IntALUs
			fpALU := cfg.FPALUs
			memPorts := cfg.MemPorts
			intMul := cfg.IntMulDiv
			fpMul := cfg.FPMulDiv
			idx := robHead + headIssued
			if idx >= robSize {
				idx -= robSize
			}
			remaining := numUnissued
			prefix := true // scanned entries so far extend the issued head prefix
			for n := headIssued; n < robCount && nIssue < width && remaining > 0; n++ {
				cur := idx
				idx++
				if idx == robSize {
					idx = 0
				}
				e := &rob[cur]
				if e.issued {
					if prefix {
						headIssued = n + 1
					}
					continue
				}
				remaining--
				ready := true
				if e.prod1 >= 0 {
					p := &rob[e.prod1]
					if p.seq < e.seq && (!p.issued || p.complete > cycle) {
						ready = false
					}
				}
				if ready && e.prod2 >= 0 {
					p := &rob[e.prod2]
					if p.seq < e.seq && (!p.issued || p.complete > cycle) {
						ready = false
					}
				}
				if !ready {
					if inOrder {
						break
					}
					prefix = false
					continue
				}
				// Functional unit constraints.
				var lat int
				switch e.class {
				case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassHalt:
					if intALU == 0 {
						prefix = false
						continue
					}
					intALU--
					lat = aluLat
				case isa.ClassIntMul:
					if intMul == 0 {
						prefix = false
						continue
					}
					intMul--
					lat = e.class.Latency()
				case isa.ClassIntDiv:
					u := -1
					for k, busy := range s.intDivFree {
						if busy <= cycle {
							u = k
							break
						}
					}
					if u < 0 {
						prefix = false
						continue
					}
					lat = e.class.Latency()
					s.intDivFree[u] = cycle + uint64(lat)
				case isa.ClassFPAdd:
					if fpALU == 0 {
						prefix = false
						continue
					}
					fpALU--
					lat = e.class.Latency()
				case isa.ClassFPMul:
					if fpMul == 0 {
						prefix = false
						continue
					}
					fpMul--
					lat = e.class.Latency()
				case isa.ClassFPDiv:
					u := -1
					for k, busy := range s.fpDivFree {
						if busy <= cycle {
							u = k
							break
						}
					}
					if u < 0 {
						prefix = false
						continue
					}
					lat = e.class.Latency()
					s.fpDivFree[u] = cycle + uint64(lat)
				case isa.ClassLoad:
					if memPorts == 0 {
						prefix = false
						continue
					}
					memPorts--
					lat = s.dcacheAccess(e.addr, false)
				case isa.ClassStore:
					if memPorts == 0 {
						prefix = false
						continue
					}
					memPorts--
					lat = 1 // address generation; data written at commit
				}
				e.issued = true
				e.complete = cycle + uint64(lat)
				numUnissued--
				if prefix {
					headIssued = n + 1
				}
				stIssued++
				stRegReads += uint64(e.nsrc)
				if e.dest != isa.NoReg {
					stRegWrites++
				}
				nIssue++
				// A resolved mispredicted branch unblocks fetch after the
				// redirect penalty.
				if e.branch && pendingMispred == cur {
					fetchResumeAt = e.complete + mispredPenalty
					pendingMispred = -1
				}
			}
		}

		// Fetch and dispatch: the decoupled front end pulls up to Width
		// instructions from the stream into the ROB, respecting I-cache
		// misses and branch redirects.
		fetched := 0
		if fetchBlocked && cycle >= fetchResumeAt && pendingMispred == -1 {
			fetchBlocked = false
		}
		if !fetchBlocked {
			avail := len(trace) - i
			if avail > width {
				avail = width
			}
			grp := trace[i : i+avail]
			for fetched < len(grp) {
				if robCount >= robSize {
					break
				}
				ti := &grp[fetched]
				isMem := ti.IsMem
				if isMem && lsqCount >= lsqSize {
					break
				}
				// I-cache: one access per new line.
				line := ti.PC & lineMask
				if line != lastFetchLine {
					lastFetchLine = line
					lat := s.icacheAccess(ti.PC)
					if lat > l1Lat {
						// Fetch bubble for the miss duration; this
						// instruction still enters this cycle's group.
						fetchBlocked = true
						fetchResumeAt = cycle + uint64(lat)
					}
				}
				fetched++

				// Dispatch: allocate a ROB (and LSQ) entry in place.
				seqCounter++
				idx := robTail
				e := &rob[idx]
				e.addr = ti.Addr
				e.complete = 0
				e.seq = seqCounter
				e.prod1 = -1
				e.prod2 = -1
				e.class = ti.Class
				e.dest = ti.Dest
				e.nsrc = 0
				e.issued = false
				e.isMem = isMem
				e.branch = ti.Branch
				if ti.Src1 != isa.NoReg {
					e.nsrc++
					if ti.Src1 != isa.RZero {
						e.prod1 = s.regProducer[ti.Src1]
					}
				}
				if ti.Src2 != isa.NoReg {
					e.nsrc++
					if ti.Src2 != isa.RZero {
						e.prod2 = s.regProducer[ti.Src2]
					}
				}
				if isMem {
					lsqCount++
				}
				robTail++
				if robTail == robSize {
					robTail = 0
				}
				robCount++
				numUnissued++
				if ti.Dest != isa.NoReg && ti.Dest != isa.RZero {
					s.regProducer[ti.Dest] = int32(idx)
				}

				if ti.Branch {
					s.st.BranchLookups++
					predTaken := s.pred.Predict(ti.PC)
					s.pred.Update(ti.PC, ti.Taken)
					if predTaken != ti.Taken {
						s.st.BranchMispredict++
						// Fetch stalls until the branch resolves.
						pendingMispred = idx
						fetchBlocked = true
						fetchResumeAt = ^uint64(0) >> 1
						break
					}
					if ti.Taken {
						// Taken branches end the fetch group.
						break
					}
				}
				if ti.Jump {
					break
				}
			}
			s.st.Fetched += uint64(fetched)
			s.st.Dispatched += uint64(fetched)
			i += fetched
		}

		// A cycle with zero commits, issues, and fetches is the start of a
		// pure stall; fastForward jumps over the provably event-free cycles
		// instead of simulating them one by one.
		if skipStalls && nCommit == 0 && nIssue == 0 && fetched == 0 && (robCount > 0 || fetchBlocked) {
			if robCount > 0 {
				// When the head completes next cycle the earliest wake is
				// cycle+1 and fastForward cannot skip; don't pay the call.
				if h := &rob[robHead]; h.issued && h.complete == cycle+1 {
					continue
				}
			}
			to := s.fastForward(cycle, robHead, robCount, headIssued,
				fetchBlocked, fetchResumeAt, pendingMispred)
			if skipped := to - cycle; skipped > 0 {
				robOcc += skipped * uint64(robCount)
				lsqOcc += skipped * uint64(lsqCount)
				cycle = to
			}
		}
	}

	s.cycle = cycle
	s.robHead, s.robTail, s.robCount = robHead, robTail, robCount
	s.lsqCount = lsqCount
	s.numUnissued, s.headIssued = numUnissued, headIssued
	s.st.ROBOccupancy, s.st.LSQOccupancy = robOcc, lsqOcc
	s.fetchBlocked, s.fetchResumeAt = fetchBlocked, fetchResumeAt
	s.pendingMispred = pendingMispred
	s.lastFetchLine = lastFetchLine
	s.committed = committedTotal
	s.warmup = warmup
	s.seqCounter = seqCounter
	s.st.Committed, s.st.Insts = stCommitted, stInsts
	s.st.Issued = stIssued
	s.st.RegReads, s.st.RegWrites = stRegReads, stRegWrites
}

// fastForward returns the latest cycle that provably repeats the
// zero-event cycle just simulated (the caller jumps the clock there and
// accumulates the occupancy integrals for the skipped cycles, whose
// occupancies cannot change). It takes the pipeline state as arguments so
// the pump loop's register-resident locals never spill through the Sim.
// It is called only after a cycle with zero commits,
// zero issues, and zero fetches, and it preserves bit-identity with
// cycle-by-cycle stepping because it stops at (the cycle before) the
// minimum over every possible wake source:
//
//   - the ROB head's completion (earliest possible commit; LSQ/ROB-full
//     fetch stalls also clear no earlier than this);
//   - for each unissued entry: the completion times of its issued
//     producers (an entry blocked only by unissued producers grounds out
//     transitively — those producers contribute their own wake times);
//   - for ready divider-class entries: the earliest divider free time;
//   - the fetch-resume cycle of an I-cache miss (a mispredict stall has
//     no resume time until the branch issues, which the issue candidates
//     already cover).
//
// Every strictly earlier cycle repeats the zero-event cycle just
// simulated, and stopping early is always safe — normal stepping simply
// resumes. A ready non-divider entry cannot exist here (a zero-issue
// cycle leaves every per-cycle FU budget untouched), so finding one
// means the stall analysis is out of sync and we skip nothing.
// No commits occur in the skipped range, so the warmup reset cannot be
// crossed.
func (s *Sim) fastForward(cycle uint64, robHead, robCount, headIssued int,
	fetchBlocked bool, fetchResumeAt uint64, pendingMispred int) uint64 {
	const never = ^uint64(0)
	wake := never
	rob := s.rob
	if robCount > 0 {
		head := &rob[robHead]
		if head.issued {
			if head.complete <= cycle {
				return cycle // commit was possible; analysis out of sync
			}
			wake = head.complete
		}
		robSize := s.cfg.ROBSize
		inOrder := s.cfg.InOrder
		idx := robHead + headIssued
		if idx >= robSize {
			idx -= robSize
		}
		for n := headIssued; n < robCount; n++ {
			cur := idx
			idx++
			if idx == robSize {
				idx = 0
			}
			e := &rob[cur]
			if e.issued {
				continue
			}
			blocked := false
			if e.prod1 >= 0 {
				p := &rob[e.prod1]
				if p.seq < e.seq && (!p.issued || p.complete > cycle) {
					blocked = true
					if p.issued && p.complete < wake {
						wake = p.complete
					}
				}
			}
			if e.prod2 >= 0 {
				p := &rob[e.prod2]
				if p.seq < e.seq && (!p.issued || p.complete > cycle) {
					blocked = true
					if p.issued && p.complete < wake {
						wake = p.complete
					}
				}
			}
			if !blocked {
				var units []uint64
				switch e.class {
				case isa.ClassIntDiv:
					units = s.intDivFree
				case isa.ClassFPDiv:
					units = s.fpDivFree
				default:
					return cycle // ready non-divider entry; analysis out of sync
				}
				for _, busy := range units {
					if busy <= cycle {
						return cycle // a unit was free; analysis out of sync
					}
					if busy < wake {
						wake = busy
					}
				}
			}
			if inOrder && !blocked {
				// In-order issue scans past FU-blocked ready entries but
				// stops at the first unready one, so entries beyond an
				// unready entry cannot contribute an earlier wake; ready
				// divider-blocked entries do not stop the scan.
				continue
			}
			if inOrder {
				break
			}
		}
	}
	if fetchBlocked && pendingMispred == -1 && fetchResumeAt > cycle && fetchResumeAt < wake {
		wake = fetchResumeAt
	}
	if wake == never || wake <= cycle+1 {
		return cycle
	}
	return wake - 1
}

// icacheAccess returns the instruction-fetch latency for pc.
func (s *Sim) icacheAccess(pc uint64) int {
	if s.l1i.Access(pc, false) {
		return s.cfg.L1Lat
	}
	if s.l2.Access(pc, false) {
		return s.cfg.L1Lat + s.cfg.L2Lat
	}
	return s.cfg.L1Lat + s.cfg.L2Lat + s.cfg.MemLat
}

// dcacheAccess returns the data access latency for addr.
func (s *Sim) dcacheAccess(addr uint64, write bool) int {
	if s.l1d.Access(addr, write) {
		return s.cfg.L1Lat
	}
	if s.cfg.NextLinePrefetch {
		// Sequential prefetch: pull line+1 into L1D (via L2) off the
		// demand path; its latency is hidden and it does not count as a
		// demand access.
		next := addr + uint64(s.cfg.L1D.LineSize)
		if !s.l1d.Prefetch(next) {
			s.l2.Prefetch(next)
			s.st.Prefetches++
		}
	}
	if s.l2.Access(addr, write) {
		return s.cfg.L1Lat + s.cfg.L2Lat
	}
	return s.cfg.L1Lat + s.cfg.L2Lat + s.cfg.MemLat
}

// finalizeStats collects cache stats into the result.
func (s *Sim) finalizeStats() {
	s.st.L1I = s.l1i.Stats()
	s.st.L1D = s.l1d.Stats()
	s.st.L2 = s.l2.Stats()
}
