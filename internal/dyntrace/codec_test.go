package dyntrace

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// refCursor is the plain decoder Cursor must agree with: it follows the
// program's control flow one instruction at a time, reading a branch's
// direction from the taken bitset, and decodes addresses with
// binary.Varint per delta, with Cursor's error contract (an error names
// the first entry that could not be produced and consumes nothing).
type refCursor struct {
	p           *prog.Program
	taken       []uint64
	memEnc      []byte
	bi, ii      int // the next instruction: block bi, index ii
	prev, i, mi uint64
}

func (r *refCursor) nextSIDs(n int) ([]uint32, error) {
	out := make([]uint32, 0, n)
	bi, ii := r.bi, r.ii
	for len(out) < n {
		at := r.i + uint64(len(out))
		if bi < 0 || bi >= len(r.p.Blocks) {
			return nil, fmt.Errorf("control flow leaves the program (block %d) at instruction %d", bi, at)
		}
		insts := r.p.Blocks[bi].Insts
		if ii < len(insts) {
			out = append(out, r.p.BlockStarts()[bi]+uint32(ii))
			ii++
			continue
		}
		switch in := insts[len(insts)-1]; {
		case in.Op == isa.OpHalt:
			return nil, fmt.Errorf("path halted before instruction %d", at)
		case in.Op == isa.OpJmp:
			bi = in.Target
		case in.Op.IsBranch():
			if (at-1)/64 >= uint64(len(r.taken)) {
				return nil, fmt.Errorf("taken bitset has %d words, branch at instruction %d needs %d", len(r.taken), at-1, (at-1)/64+1)
			}
			if r.taken[(at-1)/64]&(1<<((at-1)%64)) != 0 {
				bi = in.Target
			} else {
				bi++
			}
		default:
			bi++
		}
		ii = 0
	}
	r.bi, r.ii = bi, ii
	r.i += uint64(n)
	return out, nil
}

func (r *refCursor) nextAddrs(n int) ([]uint64, error) {
	out := make([]uint64, n)
	off, prev := 0, r.prev
	for k := range out {
		d, w := binary.Varint(r.memEnc[off:])
		if w <= 0 {
			return nil, fmt.Errorf("address stream exhausted or malformed at reference %d", r.mi+uint64(k))
		}
		prev += uint64(d)
		out[k] = prev
		off += w
	}
	r.memEnc = r.memEnc[off:]
	r.prev = prev
	r.mi += uint64(n)
	return out, nil
}

// sameResult compares one Cursor call with the reference's: the same
// values, or the same error, and the same position in both columns.
func sameResult[T comparable](c *Cursor, r *refCursor, got []T, err error, want []T, werr error) error {
	switch {
	case (err == nil) != (werr == nil):
		return fmt.Errorf("error %v, reference %v", err, werr)
	case err != nil && err.Error() != werr.Error():
		return fmt.Errorf("error %q, reference %q", err, werr)
	case err == nil && !slices.Equal(got, want):
		return fmt.Errorf("produced %v, reference %v", got, want)
	case c.i != r.i || c.mi != r.mi || len(c.memEnc) != len(r.memEnc):
		return fmt.Errorf("at %d/%d with %d address bytes left, reference %d/%d with %d",
			c.i, c.mi, len(c.memEnc), r.i, r.mi, len(r.memEnc))
	}
	return nil
}

// cursorProgram is the workload FuzzCursor follows: the first whose
// blocks end in all four ways a Cursor handles, a halt, a jmp, a
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

// FuzzCursor feeds fuzzed taken bits, address bytes and a sequence of
// requests to NextSIDs and NextAddrs over one workload's control flow
// and compares every call with refCursor. The taken bytes fill the
// bitset's words little-endian, the last word zero-padded. Each request
// byte asks for r>>1 entries, of ids when r is even and of addresses
// when it is odd.
func FuzzCursor(f *testing.F) {
	p := cursorProgram(f)
	f.Add([]byte{}, []byte{0x04, 0x80, 0x01}, []byte{2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{}, []byte{254, 254, 1})
	f.Add([]byte{0x55, 0xaa, 0x00, 0x33}, []byte{0xff}, []byte{200, 2, 2, 255})
	f.Add(make([]byte, 64), binary.AppendVarint(nil, -8), []byte{254, 254, 254, 254, 3, 0})
	f.Fuzz(func(t *testing.T, takenBytes, memEnc, reqs []byte) {
		taken := make([]uint64, (len(takenBytes)+7)/8)
		for i, b := range takenBytes {
			taken[i/8] |= uint64(b) << (8 * (i % 8))
		}
		c := FromColumns(p, taken, nil, nil, 0, false).NewCursor()
		c.memEnc = memEnc
		r := refCursor{p: p, taken: taken, memEnc: memEnc, bi: p.Entry}
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
