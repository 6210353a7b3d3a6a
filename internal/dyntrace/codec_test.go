package dyntrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// refPos is a position of refCursor on the program: the next
// instruction is Insts[ii] of block bi.
type refPos struct {
	bi, ii int
	halted bool   // the last instruction passed was a halt
	i, bn  uint64 // instructions and branch directions passed
}

// refCursor is the plain decoder Cursor must agree with. Each of its
// two columns follows the program's control flow one instruction at a
// time, taking each conditional branch's direction from the next bit
// of the branch bitset; the address column decodes each reference as
// it reaches it, from a (last, stride) predictor per static id, a hit
// bit per reference and a binary.Varint residual per miss. It has
// Cursor's error contract: an error names the first entry, in path
// order, that could not be produced, and consumes nothing.
type refCursor struct {
	p               *prog.Program
	branch, hits    []uint64
	nBranch, numMem uint64
	resid           []byte
	ids, refs       refPos
	pred            []stride // by static id
	mi              uint64
}

// step passes the instruction at pos and returns its id and the
// instruction. The block's last instruction picks the successor.
func (r *refCursor) step(pos *refPos) (uint32, *isa.Inst, error) {
	at := pos.i
	if pos.halted {
		return 0, nil, fmt.Errorf("path halted before instruction %d", at)
	}
	if pos.bi < 0 || pos.bi >= len(r.p.Blocks) {
		return 0, nil, fmt.Errorf("control flow leaves the program (block %d) at instruction %d", pos.bi, at)
	}
	insts := r.p.Blocks[pos.bi].Insts
	in := &insts[pos.ii]
	sid := r.p.BlockStarts()[pos.bi] + uint32(pos.ii)
	next, nextII := pos.bi, pos.ii+1
	if nextII == len(insts) {
		next, nextII = pos.bi+1, 0
		switch {
		case in.Op == isa.OpHalt:
			pos.halted = true
		case in.Op == isa.OpJmp:
			next = in.Target
		case in.Op.IsBranch():
			if pos.bn >= r.nBranch {
				return 0, nil, fmt.Errorf("the branch at instruction %d has no direction: the trace holds %d", at, r.nBranch)
			}
			if r.branch[pos.bn/64]&(1<<(pos.bn%64)) != 0 {
				next = in.Target
			}
			pos.bn++
		}
	}
	pos.bi, pos.ii = next, nextII
	pos.i++
	return sid, in, nil
}

func (r *refCursor) nextSIDs(n int) ([]uint32, error) {
	pos := r.ids
	out := make([]uint32, 0, n)
	for len(out) < n {
		sid, _, err := r.step(&pos)
		if err != nil {
			return nil, err
		}
		out = append(out, sid)
	}
	r.ids = pos
	return out, nil
}

func (r *refCursor) nextAddrs(n int) ([]uint64, error) {
	pos, pred, resid, mi := r.refs, slices.Clone(r.pred), r.resid, r.mi
	var out []uint64
	for len(out) < n {
		sid, in, err := r.step(&pos)
		if err != nil {
			return nil, err
		}
		if !in.Op.IsMem() {
			continue
		}
		if mi >= r.numMem {
			return nil, fmt.Errorf("address stream exhausted or malformed at reference %d", mi)
		}
		p := &pred[sid]
		a := p.last + p.stride
		if r.hits[mi/64]&(1<<(mi%64)) == 0 {
			d, w := binary.Varint(resid)
			if w <= 0 {
				return nil, fmt.Errorf("address stream exhausted or malformed at reference %d", mi)
			}
			a = p.last + uint64(d)
			p.stride = a - p.last
			resid = resid[w:]
		}
		p.last = a
		out = append(out, a)
		mi++
	}
	r.refs, r.pred, r.resid, r.mi = pos, pred, resid, mi
	return out, nil
}

// sameResult compares one Cursor call with the reference's: the same
// values, or the same error, and the same state after it: both
// positions on the path, the references and residual bytes consumed and
// every static's predictor.
func sameResult[T comparable](c *Cursor, r *refCursor, got []T, err error, want []T, werr error) error {
	switch {
	case (err == nil) != (werr == nil):
		return fmt.Errorf("error %v, reference %v", err, werr)
	case err != nil && err.Error() != werr.Error():
		return fmt.Errorf("error %q, reference %q", err, werr)
	case err == nil && !slices.Equal(got, want):
		return fmt.Errorf("produced %v, reference %v", got, want)
	case c.ids.i != r.ids.i || c.ids.bn != r.ids.bn || c.refs.i != r.refs.i || c.refs.bn != r.refs.bn:
		return fmt.Errorf("ids at %d/%d and addresses at %d/%d (instructions/branches), reference %d/%d and %d/%d",
			c.ids.i, c.ids.bn, c.refs.i, c.refs.bn, r.ids.i, r.ids.bn, r.refs.i, r.refs.bn)
	case c.refs.mi != r.mi || len(c.refs.resid) != len(r.resid):
		return fmt.Errorf("at reference %d with %d residual bytes left, reference %d with %d",
			c.refs.mi, len(c.refs.resid), r.mi, len(r.resid))
	}
	j := 0
	for sid := range r.pred {
		if c.refs.t.flow.memBefore[sid+1] == c.refs.t.flow.memBefore[sid] {
			continue
		}
		if c.refs.pred[j] != r.pred[sid] {
			return fmt.Errorf("static %d predicts %+v, reference %+v", sid, c.refs.pred[j], r.pred[sid])
		}
		j++
	}
	return nil
}

// cursorProgram is the workload FuzzCursor follows: the first whose
// blocks end in all four ways a path handles, a halt, a jmp, a
// conditional branch and a fall-through.
func cursorProgram(tb testing.TB) *prog.Program {
	tb.Helper()
	for _, w := range workloads.All() {
		p := w.Build()
		var kinds [4]bool
		for _, fb := range buildFlow(p, buildStatic(p)).blocks {
			kinds[fb.kind] = true
		}
		if kinds == [4]bool{true, true, true, true} {
			return p
		}
	}
	tb.Fatal("no workload ends its blocks in all four ways")
	return nil
}

// wordBytes returns the little-endian bytes of words.
func wordBytes(words []uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// bytesWords fills words from b little-endian, the last word
// zero-padded.
func bytesWords(b []byte) []uint64 {
	words := make([]uint64, (len(b)+7)/8)
	for i, x := range b {
		words[i/8] |= uint64(x) << (8 * (i % 8))
	}
	return words
}

// FuzzCursor feeds fuzzed branch bits, hit bits, residual bytes and a
// sequence of requests to NextSIDs and NextAddrs over one workload's
// control flow and compares every call with refCursor. The trace holds
// 8 branch directions per branch byte and 8 references per hit byte.
// Each request byte asks for r>>1 entries, of ids when r is even and of
// addresses when it is odd. One seed is a real capture's columns.
func FuzzCursor(f *testing.F) {
	p := cursorProgram(f)
	f.Add([]byte{}, []byte{}, []byte{0x04, 0x80, 0x01}, []byte{2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{0xff}, []byte{}, []byte{254, 254, 1})
	f.Add([]byte{0x55, 0xaa, 0x00, 0x33}, []byte{0x0f, 0xf0}, []byte{0xff}, []byte{200, 2, 2, 255})
	f.Add(make([]byte, 64), make([]byte, 4), binary.AppendVarint(nil, -8), []byte{254, 254, 254, 254, 3, 0})
	real, err := CaptureContext(context.Background(), p, 3_000)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wordBytes(real.branch), wordBytes(real.hits), real.resid, []byte{101, 255, 254, 17, 255, 255, 254, 254, 254, 254, 254})
	f.Fuzz(func(t *testing.T, branchBytes, hitBytes, resid, reqs []byte) {
		tr := FromColumns(p, nil, nil, 0, false)
		tr.branch, tr.nBranch = bytesWords(branchBytes), 8*uint64(len(branchBytes))
		tr.hits, tr.numMem, tr.resid = bytesWords(hitBytes), 8*uint64(len(hitBytes)), resid
		c := tr.NewCursor()
		entry := refPos{bi: p.Entry}
		r := refCursor{p: p, branch: tr.branch, hits: tr.hits, nBranch: tr.nBranch, numMem: tr.numMem, resid: resid,
			ids: entry, refs: entry, pred: make([]stride, len(tr.static))}
		for _, q := range reqs {
			n := int(q >> 1)
			var e error
			if q&1 == 0 {
				got, err := c.NextSIDs(make([]uint32, n))
				want, werr := r.nextSIDs(n)
				e = sameResult(c, &r, got, err, want, werr)
			} else {
				got, err := c.NextAddrs(make([]uint64, n))
				want, werr := r.nextAddrs(n)
				e = sameResult(c, &r, got, err, want, werr)
			}
			if e != nil {
				t.Fatalf("request %#x: %v", q, e)
			}
		}
	})
}
