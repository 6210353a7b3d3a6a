package dyntrace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"perfclone/internal/workloads"
)

// refCursor is the plain decoder Cursor's fast paths must agree with:
// binary.Uvarint per static id and binary.Varint per address delta,
// with Cursor's error contract (an error names the first entry that
// could not be decoded and consumes nothing).
type refCursor struct {
	sidEnc, memEnc []byte
	prev, i, mi    uint64
}

func (r *refCursor) nextSIDs(n int) ([]uint32, error) {
	out := make([]uint32, n)
	off := 0
	for k := range out {
		v, w := binary.Uvarint(r.sidEnc[off:])
		if w <= 0 || v > maxColumn {
			return nil, fmt.Errorf("static-id stream exhausted or malformed at instruction %d", r.i+uint64(k))
		}
		out[k] = uint32(v)
		off += w
	}
	r.sidEnc = r.sidEnc[off:]
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
// values, or the same error, and the same bytes left in both columns.
func sameResult[T comparable](c *Cursor, r *refCursor, got []T, err error, want []T, werr error) error {
	switch {
	case (err == nil) != (werr == nil):
		return fmt.Errorf("error %v, reference %v", err, werr)
	case err != nil && err.Error() != werr.Error():
		return fmt.Errorf("error %q, reference %q", err, werr)
	case err == nil && !slices.Equal(got, want):
		return fmt.Errorf("decoded %v, reference %v", got, want)
	case len(c.sidEnc) != len(r.sidEnc) || len(c.memEnc) != len(r.memEnc):
		return fmt.Errorf("%d/%d bytes left, reference %d/%d", len(c.sidEnc), len(c.memEnc), len(r.sidEnc), len(r.memEnc))
	}
	return nil
}

// TestNextSIDsEveryTwoBytePrefix: for each of the 65 536 two-byte
// prefixes, followed by the end of the stream, by a one-byte id and by a
// lone continuation byte, NextSIDs decodes what binary.Uvarint does at
// every request length that reaches the end: the same values, the same
// bytes consumed and an error at the same instruction.
func TestNextSIDsEveryTwoBytePrefix(t *testing.T) {
	buf := make([]uint32, 4)
	for pre := 0; pre < 1<<16; pre++ {
		b0, b1 := byte(pre), byte(pre>>8)
		for _, stream := range [][]byte{{b0, b1}, {b0, b1, 0x05}, {b0, b1, 0x80}} {
			for n := 1; n <= len(buf); n++ {
				c := Cursor{sidEnc: stream}
				r := refCursor{sidEnc: stream}
				got, err := c.NextSIDs(buf[:n])
				want, werr := r.nextSIDs(n)
				if e := sameResult(&c, &r, got, err, want, werr); e != nil {
					t.Fatalf("stream % x, %d ids: %v", stream, n, e)
				}
			}
		}
	}
}

// TestSIDCodecBoundaries: ids on each side of the one-, two- and
// three-byte uvarint edges survive a FromColumns → Walk round trip and
// an Encoder → Walk round trip, and the Encoder writes
// binary.AppendUvarint's bytes.
func TestSIDCodecBoundaries(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	ids := []uint32{0, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21}
	var sids []uint32
	for i := 0; i < 1000; i++ { // past one 64-bit taken word, in every order
		sids = append(sids, ids[i%len(ids)], ids[(i*3)%len(ids)])
	}
	var want []byte
	for _, v := range sids {
		want = binary.AppendUvarint(want, uint64(v))
	}
	// Walk range-checks ids against the static table, so give both
	// traces one that holds the largest id. Zero entries are not memory
	// instructions, so the traces make no references.
	static := make([]Static, 1<<21+1)
	taken := make([]uint64, (len(sids)+63)/64)

	built := FromColumns(p, sids, taken, nil, nil, uint64(len(sids)), false)
	built.static = static
	e := NewEncoder(p, static, uint64(len(sids)))
	e.Add(&Chunk{SIDs: sids, Taken: taken})
	encoded := e.Finish(false)
	if !bytes.Equal(encoded.sidEnc, want) {
		t.Fatalf("Encoder wrote % x, AppendUvarint % x", encoded.sidEnc[:min(32, len(encoded.sidEnc))], want[:32])
	}
	for name, tr := range map[string]*Trace{"FromColumns": built, "Encoder": encoded} {
		if got := walkAll(t, tr, 0).sids; !slices.Equal(got, sids) {
			t.Errorf("%s trace walks back different ids", name)
		}
	}
}

// FuzzCursor feeds arbitrary column bytes and a sequence of requests to
// NextSIDs and NextAddrs and compares every call with the plain
// binary.Uvarint/Varint decoder. Each request byte asks for r>>1
// entries, of ids when r is even and of addresses when it is odd.
// FuzzTraceLoad cannot reach the id fast paths: its images hold one-byte
// ids, and a mutated image rarely passes the CRC check.
func FuzzCursor(f *testing.F) {
	two := binary.AppendUvarint(binary.AppendUvarint(nil, 300), 16383)
	f.Add(two, []byte{0x04, 0x80, 0x01}, []byte{2, 3, 4})
	f.Add(append(two, 0x80), []byte{}, []byte{6, 1})
	f.Add([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{0xff}, []byte{4, 2, 2})
	f.Add([]byte{0x80, 0x00, 0x7f}, binary.AppendVarint(nil, -8), []byte{6, 3, 0})
	f.Fuzz(func(t *testing.T, sidEnc, memEnc, reqs []byte) {
		c := Cursor{sidEnc: sidEnc, memEnc: memEnc}
		r := refCursor{sidEnc: sidEnc, memEnc: memEnc}
		for _, q := range reqs {
			n := int(q >> 1)
			var e error
			if q&1 == 0 {
				got, err := c.NextSIDs(make([]uint32, n))
				want, werr := r.nextSIDs(n)
				e = sameResult(&c, &r, got, err, want, werr)
			} else {
				got, err := c.NextAddrs(make([]uint64, n))
				want, werr := r.nextAddrs(n)
				e = sameResult(&c, &r, got, err, want, werr)
			}
			if e != nil {
				t.Fatalf("request %#x: %v", q, e)
			}
		}
	})
}
