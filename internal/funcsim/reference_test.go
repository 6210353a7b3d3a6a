package funcsim

import (
	"fmt"

	"perfclone/internal/isa"
)

// RunReference is a per-event interpreter loop, the oracle
// TestColumnsMatchReference and FuzzColumns hold RunColumns and the
// Event adapter to (exported to those external tests; it exists only in
// tests). It builds one Event per retired instruction and hands obs batches of up
// to EventChunk of them, flushing the batch on halt, on the limit, on an
// execution error and on falling off the program.
func (m *Machine) RunReference(lim Limits, obs BatchObserver) (Result, error) {
	var res Result
	var buf []Event
	if obs != nil {
		buf = make([]Event, 0, EventChunk)
	}
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := obs(buf)
		buf = buf[:0]
		return err
	}
	bi := m.prog.Entry
	for bi >= 0 {
		blk := &m.prog.Blocks[bi]
		next := bi + 1 // fall-through default
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			if lim.MaxInsts > 0 && res.Insts >= lim.MaxInsts {
				return res, flush()
			}
			addr, _, taken, nb, err := m.exec(in)
			if err != nil {
				if ferr := flush(); ferr != nil {
					return res, ferr
				}
				return res, err
			}
			if nb != fallThrough {
				next = nb
			}
			if obs != nil {
				nextBlock := next
				if in.Op == isa.OpHalt {
					nextBlock = -1
				}
				buf = append(buf, Event{
					Seq:       res.Insts,
					Block:     bi,
					Index:     ii,
					PC:        m.prog.InstAddr(bi, ii),
					Inst:      in,
					Addr:      addr,
					Taken:     taken,
					NextBlock: nextBlock,
				})
				if len(buf) == cap(buf) {
					if err := flush(); err != nil {
						return res, err
					}
				}
			}
			res.Insts++
			if in.Op == isa.OpHalt {
				res.Halted = true
				return res, flush()
			}
		}
		bi = next
		if bi >= len(m.prog.Blocks) {
			if err := flush(); err != nil {
				return res, err
			}
			return res, fmt.Errorf("funcsim: %s fell off program at block %d", m.prog.Name, bi)
		}
	}
	return res, flush()
}
