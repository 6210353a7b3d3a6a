package dyntrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"perfclone/internal/prog"
)

// On-disk trace format, PCDT v2 (all integers little-endian). The
// static-id column is uvarint-encoded and the address column
// zigzag-delta-uvarint-encoded, ~1-2 B per entry each. The two bitsets
// stay raw and the header is padded so they land 8-byte-aligned in the
// file: a zero-copy loader (LoadBytes, fed by the store's mmap path)
// can alias them in place and replay straight out of the page cache.
// Any other version is rejected as unsupported; the store quarantines
// such an image and recomputes the trace.
//
//	magic   [4]byte "PCDT"
//	version uint32  (2)
//	nameLen uint32, name []byte
//	insts   uint64
//	halted  uint8
//	numMem  uint64  (memory references == decoded address count)
//	nTaken, nMemStore uint64  (bitset words)
//	sidEncLen, memEncLen uint64  (encoded stream bytes)
//	pad     []byte  (zeros, to an 8-aligned file offset)
//	taken    []uint64  (raw)
//	memStore []uint64  (raw)
//	sidEnc   []byte   (uvarint per static id)
//	memEnc   []byte   (zigzag-delta uvarint per address)
//	crc32    uint32   (IEEE, over everything after the version field)
//
// The static table is not serialized: it is a pure function of the
// traced program, and the store keys trace files by a hash of that
// program, so LoadBytes rebuilds it with buildStatic and then
// cross-checks the dynamic columns against it (see Trace.check). That keeps the
// format free of isa enum encodings and makes a program/trace mismatch
// a load-time error instead of a silent misreplay.

const (
	traceMagic   = "PCDT"
	traceVersion = 2
)

// hostLittleEndian gates the zero-copy bitset alias: on a big-endian
// host the raw little-endian words must be byte-swapped into a copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// v2HeaderLen is the byte length of the fixed v2 header fields after
// the name: insts + halted + numMem + nTaken + nMemStore + sidEncLen +
// memEncLen.
const v2HeaderLen = 8 + 1 + 8 + 8 + 8 + 8 + 8

// v2Pad returns the zero-padding length that 8-aligns the taken bitset
// for a trace name of the given length.
func v2Pad(nameLen int) int {
	off := 8 + 4 + nameLen + v2HeaderLen // magic+version, nameLen, name, fixed fields
	return (8 - off%8) % 8
}

// Save writes the trace in the current (v2) binary format. A trace
// already holds its columns encoded, so Save only frames them.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return fmt.Errorf("dyntrace: save %s: %w", t.prog.Name, err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(traceVersion)); err != nil {
		return fmt.Errorf("dyntrace: save %s: %w", t.prog.Name, err)
	}
	crc := crc32.NewIEEE()
	cw := io.MultiWriter(bw, crc)
	name := []byte(t.prog.Name)
	write := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	halted := uint8(0)
	if t.halted {
		halted = 1
	}
	var pad [8]byte
	err := write(
		uint32(len(name)), name,
		t.insts, halted, t.numMem,
		uint64(len(t.taken)), uint64(len(t.memStore)),
		uint64(len(t.sidEnc)), uint64(len(t.memEnc)),
		pad[:v2Pad(len(name))],
		t.taken, t.memStore, t.sidEnc, t.memEnc,
	)
	if err == nil {
		err = binary.Write(bw, binary.LittleEndian, crc.Sum32())
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("dyntrace: save %s: %w", t.prog.Name, err)
	}
	return nil
}

// maxColumn caps a single dynamic column at 2^31 entries (≈2G dynamic
// instructions, ~8 GB of ids) — far beyond any capture budget, but small
// enough that a forged header cannot demand an absurd allocation.
const maxColumn = 1 << 31

// rawV2 is the parsed v2 payload: bitsets (aliased into the source
// bytes when possible) plus the still-encoded column streams.
type rawV2 struct {
	name     string
	insts    uint64
	numMem   uint64
	halted   bool
	taken    []uint64
	memStore []uint64
	sidEnc   []byte
	memEnc   []byte
}

// aliasU64 reinterprets an 8-aligned little-endian byte region as a
// []uint64 without copying; a misaligned region or a big-endian host
// falls back to a decoded copy. n is in words.
func aliasU64(b []byte, n uint64) []uint64 {
	if n == 0 {
		return []uint64{}
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// parseV2 parses one complete v2 image (starting at the magic),
// CRC-checking everything and aliasing the bitsets and encoded streams
// into data — the zero-copy path behind the store's mmap load.
func parseV2(data []byte) (*rawV2, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	if len(data) < 8+4+v2HeaderLen+4 {
		return nil, fmt.Errorf("dyntrace: load: truncated v2 trace (%d bytes)", len(data))
	}
	body, tail := data[8:len(data)-4], data[len(data)-4:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("dyntrace: load: checksum mismatch (file %08x, computed %08x)",
			binary.LittleEndian.Uint32(tail), sum)
	}
	off := 8
	nameLen := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("dyntrace: load: implausible name length %d", nameLen)
	}
	if len(data)-off < int(nameLen)+v2HeaderLen+4 {
		return nil, fmt.Errorf("dyntrace: load: truncated v2 header")
	}
	rt := &rawV2{name: string(data[off : off+int(nameLen)])}
	off += int(nameLen)
	rt.insts = binary.LittleEndian.Uint64(data[off:])
	rt.halted = data[off+8] != 0
	rt.numMem = binary.LittleEndian.Uint64(data[off+9:])
	nTaken := binary.LittleEndian.Uint64(data[off+17:])
	nMemStore := binary.LittleEndian.Uint64(data[off+25:])
	sidEncLen := binary.LittleEndian.Uint64(data[off+33:])
	memEncLen := binary.LittleEndian.Uint64(data[off+41:])
	off += v2HeaderLen
	if rt.insts > maxColumn || rt.numMem > maxColumn || nTaken > maxColumn || nMemStore > maxColumn ||
		sidEncLen > maxColumn || memEncLen > maxColumn {
		return nil, fmt.Errorf("dyntrace: load %s: implausible column lengths %d/%d/%d/%d/%d/%d",
			rt.name, rt.insts, rt.numMem, nTaken, nMemStore, sidEncLen, memEncLen)
	}
	off += v2Pad(int(nameLen))
	need := nTaken*8 + nMemStore*8 + sidEncLen + memEncLen
	if uint64(len(data)-off-4) != need {
		return nil, fmt.Errorf("dyntrace: load %s: payload is %d bytes, header claims %d",
			rt.name, len(data)-off-4, need)
	}
	rt.taken = aliasU64(data[off:], nTaken)
	off += int(nTaken) * 8
	rt.memStore = aliasU64(data[off:], nMemStore)
	off += int(nMemStore) * 8
	rt.sidEnc = data[off : off+int(sidEncLen) : off+int(sidEncLen)]
	off += int(sidEncLen)
	rt.memEnc = data[off : off+int(memEncLen) : off+int(memEncLen)]
	return rt, nil
}

// scanStreams decodes both encoded streams end to end with a Cursor,
// requiring exactly insts static ids and numMem addresses and not a byte
// more. onIDs, when non-nil, sees the ids one chunk at a time, with the
// dynamic index of the chunk's first id.
func scanStreams(sidEnc, memEnc []byte, insts, numMem uint64, onIDs func(base uint64, sids []uint32) error) error {
	c := Cursor{sidEnc: sidEnc, memEnc: memEnc}
	sids := make([]uint32, min(insts, ChunkLen))
	for c.i < insts {
		base := c.i
		got, err := c.NextSIDs(sids[:min(insts-base, ChunkLen)])
		if err != nil {
			return err
		}
		if onIDs != nil {
			if err := onIDs(base, got); err != nil {
				return err
			}
		}
	}
	if len(c.sidEnc) != 0 {
		return fmt.Errorf("static-id stream has %d trailing bytes", len(c.sidEnc))
	}
	addrs := make([]uint64, min(numMem, ChunkLen))
	for c.mi < numMem {
		if _, err := c.NextAddrs(addrs[:min(numMem-c.mi, ChunkLen)]); err != nil {
			return err
		}
	}
	if len(c.memEnc) != 0 {
		return fmt.Errorf("address stream has %d trailing bytes", len(c.memEnc))
	}
	return nil
}

// checkShape validates the program-independent invariants that bind the
// dynamic columns to each other. LoadBytes additionally cross-checks
// against the program's static table (Trace.check).
func checkShape(insts, numMem uint64, nTaken, nMemStore int) error {
	if want := (insts + 63) / 64; uint64(nTaken) != want {
		return fmt.Errorf("taken bitset has %d words, want %d for %d instructions", nTaken, want, insts)
	}
	if want := (numMem + 63) / 64; uint64(nMemStore) != want {
		return fmt.Errorf("store bitset has %d words, want %d for %d references", nMemStore, want, numMem)
	}
	return nil
}

// checkHeader validates the magic and version of a complete image.
func checkHeader(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("dyntrace: load: truncated trace (%d bytes)", len(data))
	}
	if string(data[:4]) != traceMagic {
		return fmt.Errorf("dyntrace: load: bad magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != traceVersion {
		return fmt.Errorf("dyntrace: load: unsupported version %d (want %d)", version, traceVersion)
	}
	return nil
}

// Verify reads a serialized trace and checks everything that does not
// require the traced program: magic, version, CRC-32, and the
// structural invariants binding the columns together. The store's
// doctor pass uses it to audit artifacts it cannot attach to a program
// (static-id bounds and the memory-reference cross-count are only
// checkable by LoadBytes).
func Verify(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("dyntrace: load: %w", err)
	}
	rt, err := parseV2(data)
	if err != nil {
		return err
	}
	if err := checkShape(rt.insts, rt.numMem, len(rt.taken), len(rt.memStore)); err != nil {
		return fmt.Errorf("dyntrace: verify %s: %w", rt.name, err)
	}
	if err := scanStreams(rt.sidEnc, rt.memEnc, rt.insts, rt.numMem, nil); err != nil {
		return fmt.Errorf("dyntrace: verify %s: %w", rt.name, err)
	}
	return nil
}

// LoadBytes loads a serialized trace from an in-memory image — usually
// a read-only mmap of a store artifact. The bitsets are aliased in place
// (when aligned, on little-endian hosts) and the encoded columns kept as
// subslices, so nothing is copied at load time; release, when non-nil,
// is adopted by the returned Trace and invoked by Close to drop the
// mapping. On error, ownership of release stays with the caller.
func LoadBytes(data []byte, release func() error, p *prog.Program) (*Trace, error) {
	rt, err := parseV2(data)
	if err != nil {
		return nil, err
	}
	if rt.name != p.Name {
		return nil, fmt.Errorf("dyntrace: load: trace is for %q, not %q", rt.name, p.Name)
	}
	static := buildStatic(p)
	t := &Trace{
		prog:     p,
		static:   static,
		taken:    rt.taken,
		memStore: rt.memStore,
		sidEnc:   rt.sidEnc,
		memEnc:   rt.memEnc,
		insts:    rt.insts,
		numMem:   rt.numMem,
		halted:   rt.halted,
	}
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("dyntrace: load %s: %w", rt.name, err)
	}
	t.release = release
	return t, nil
}

// check validates the dynamic columns against each other and against the
// static table rebuilt from the program. LoadBytes runs it so corruption
// or a program mismatch surfaces before any consumer replays garbage.
// The encoded columns are validated by streaming them through a Cursor.
func (t *Trace) check() error {
	if err := checkShape(t.insts, t.numMem, len(t.taken), len(t.memStore)); err != nil {
		return err
	}
	var memRefs uint64
	err := scanStreams(t.sidEnc, t.memEnc, t.insts, t.numMem, func(base uint64, sids []uint32) error {
		for k, sid := range sids {
			if int(sid) >= len(t.static) {
				return fmt.Errorf("dynamic instruction %d has static id %d, table has %d entries", base+uint64(k), sid, len(t.static))
			}
			if t.static[sid].Mem {
				memRefs++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if memRefs != t.numMem {
		return fmt.Errorf("static-id column implies %d memory references, address column has %d", memRefs, t.numMem)
	}
	return nil
}
