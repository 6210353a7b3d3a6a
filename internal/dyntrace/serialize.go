package dyntrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

// On-disk trace format, PCDT v3 (all integers little-endian). There is
// no static-id column: the ids are a function of the traced program and
// the taken bitset (see flow), so LoadBytes rebuilds them. The address
// column is zigzag-delta-uvarint-encoded, ~1-2 B per reference. The two
// bitsets stay raw and the header is padded so they land
// 8-byte-aligned in the file: a zero-copy loader (LoadBytes, fed by the
// store's mmap path) can alias them in place and replay straight out of
// the page cache. Any other version is rejected as unsupported; the
// store quarantines such an image and recomputes the trace.
//
//	magic   [4]byte "PCDT"
//	version uint32  (3)
//	nameLen uint32, name []byte
//	insts   uint64
//	halted  uint8
//	numMem  uint64  (memory references == decoded address count)
//	nTaken, nMemStore uint64  (bitset words)
//	memEncLen uint64  (encoded address stream bytes)
//	pad     []byte  (zeros, to an 8-aligned file offset)
//	taken    []uint64  (raw)
//	memStore []uint64  (raw)
//	memEnc   []byte   (zigzag-delta uvarint per address)
//	crc32    uint32   (IEEE, over everything after the version field)
//
// The static table is not serialized either: it is a pure function of
// the traced program, and the store keys trace files by a hash of that
// program, so LoadBytes rebuilds it with buildStatic and then replays
// the path against the header (see Trace.check). That keeps the format
// free of isa enum encodings and makes a program/trace mismatch a
// load-time error instead of a silent misreplay.

const (
	traceMagic   = "PCDT"
	traceVersion = 3
)

// hostLittleEndian gates the zero-copy bitset alias: on a big-endian
// host the raw little-endian words must be byte-swapped into a copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// headerLen is the byte length of the fixed header fields after the
// name: insts + halted + numMem + nTaken + nMemStore + memEncLen.
const headerLen = 8 + 1 + 8 + 8 + 8 + 8

// headerPad returns the zero-padding length that 8-aligns the taken
// bitset for a trace name of the given length.
func headerPad(nameLen int) int {
	off := 8 + 4 + nameLen + headerLen // magic+version, nameLen, name, fixed fields
	return (8 - off%8) % 8
}

// Save writes the trace in the current (v3) binary format. A trace
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
		uint64(len(t.taken)), uint64(len(t.memStore)), uint64(len(t.memEnc)),
		pad[:headerPad(len(name))],
		t.taken, t.memStore, t.memEnc,
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
// instructions) — far beyond any capture budget, but small enough that
// a forged header cannot demand an absurd allocation.
const maxColumn = 1 << 31

// image is a parsed trace image: the header, the bitsets (aliased into
// the source bytes when possible) and the still-encoded address stream.
type image struct {
	name     string
	insts    uint64
	numMem   uint64
	halted   bool
	taken    []uint64
	memStore []uint64
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

// parseImage parses one complete image (starting at the magic),
// CRC-checking everything and aliasing the bitsets and the address
// stream into data — the zero-copy path behind the store's mmap load.
func parseImage(data []byte) (*image, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	if len(data) < 8+4+headerLen+4 {
		return nil, fmt.Errorf("dyntrace: load: truncated trace (%d bytes)", len(data))
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
	if len(data)-off < int(nameLen)+headerLen+4 {
		return nil, fmt.Errorf("dyntrace: load: truncated header")
	}
	im := &image{name: string(data[off : off+int(nameLen)])}
	off += int(nameLen)
	im.insts = binary.LittleEndian.Uint64(data[off:])
	im.halted = data[off+8] != 0
	im.numMem = binary.LittleEndian.Uint64(data[off+9:])
	nTaken := binary.LittleEndian.Uint64(data[off+17:])
	nMemStore := binary.LittleEndian.Uint64(data[off+25:])
	memEncLen := binary.LittleEndian.Uint64(data[off+33:])
	off += headerLen
	if im.insts > maxColumn || im.numMem > maxColumn || nTaken > maxColumn || nMemStore > maxColumn || memEncLen > maxColumn {
		return nil, fmt.Errorf("dyntrace: load %s: implausible column lengths %d/%d/%d/%d/%d",
			im.name, im.insts, im.numMem, nTaken, nMemStore, memEncLen)
	}
	off += headerPad(int(nameLen))
	need := nTaken*8 + nMemStore*8 + memEncLen
	if uint64(len(data)-off-4) != need {
		return nil, fmt.Errorf("dyntrace: load %s: payload is %d bytes, header claims %d",
			im.name, len(data)-off-4, need)
	}
	im.taken = aliasU64(data[off:], nTaken)
	off += int(nTaken) * 8
	im.memStore = aliasU64(data[off:], nMemStore)
	off += int(nMemStore) * 8
	im.memEnc = data[off : off+int(memEncLen) : off+int(memEncLen)]
	return im, nil
}

// checkAddrs decodes the address stream end to end, requiring exactly
// numMem addresses and not a byte more.
func checkAddrs(memEnc []byte, numMem uint64) error {
	c := Cursor{memEnc: memEnc}
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
// bitsets to the header. LoadBytes additionally replays the path against
// the program (Trace.check).
func checkShape(insts, numMem, nTaken, nMemStore uint64) error {
	if want := (insts + 63) / 64; nTaken != want {
		return fmt.Errorf("taken bitset has %d words, want %d for %d instructions", nTaken, want, insts)
	}
	if want := (numMem + 63) / 64; nMemStore != want {
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
// require the traced program: magic, version, CRC-32, the bitset shapes
// and an address stream of exactly numMem addresses. The store's doctor
// pass uses it to audit artifacts it cannot attach to a program (the
// path replay is only possible in LoadBytes).
func Verify(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("dyntrace: load: %w", err)
	}
	im, err := parseImage(data)
	if err != nil {
		return err
	}
	err = checkShape(im.insts, im.numMem, uint64(len(im.taken)), uint64(len(im.memStore)))
	if err == nil {
		err = checkAddrs(im.memEnc, im.numMem)
	}
	if err != nil {
		return fmt.Errorf("dyntrace: verify %s: %w", im.name, err)
	}
	return nil
}

// LoadBytes loads a serialized trace from an in-memory image — usually
// a read-only mmap of a store artifact. The bitsets are aliased in place
// (when aligned, on little-endian hosts) and the address stream kept as
// a subslice, so nothing is copied at load time; release, when non-nil,
// is adopted by the returned Trace and invoked by Close to drop the
// mapping. On error, ownership of release stays with the caller.
func LoadBytes(data []byte, release func() error, p *prog.Program) (*Trace, error) {
	im, err := parseImage(data)
	if err != nil {
		return nil, err
	}
	if im.name != p.Name {
		return nil, fmt.Errorf("dyntrace: load: trace is for %q, not %q", im.name, p.Name)
	}
	t := newTrace(p, buildStatic(p))
	t.taken, t.memStore, t.memEnc = im.taken, im.memStore, im.memEnc
	t.insts, t.numMem, t.halted = im.insts, im.numMem, im.halted
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("dyntrace: load %s: %w", im.name, err)
	}
	t.release = release
	return t, nil
}

// check validates the trace against its program, so corruption or a
// program mismatch surfaces before any consumer replays garbage. It
// replays the path over the first insts instructions: the path must not
// halt before them, it must make exactly numMem memory references, and
// halted must be set exactly when the last instruction is a halt. The
// address stream must hold exactly numMem addresses, and the bitsets
// the shapes the header implies.
func (t *Trace) check() error {
	if err := checkShape(t.insts, t.numMem, uint64(len(t.taken)), uint64(len(t.memStore))); err != nil {
		return err
	}
	c := t.NewCursor()
	buf := make([]uint32, min(t.insts, ChunkLen))
	var memRefs uint64
	halted := false // an empty trace has not halted
	for c.i < t.insts {
		sids, nmem, err := c.nextSIDs(buf[:min(t.insts-c.i, ChunkLen)])
		if err != nil {
			return fmt.Errorf("header claims %d instructions: %w", t.insts, err)
		}
		memRefs += nmem
		halted = t.static[sids[len(sids)-1]].Op == isa.OpHalt
	}
	if memRefs != t.numMem {
		return fmt.Errorf("path makes %d memory references, header claims %d", memRefs, t.numMem)
	}
	if halted != t.halted {
		return fmt.Errorf("header says halted=%v, path's last instruction is a halt: %v", t.halted, halted)
	}
	return checkAddrs(t.memEnc, t.numMem)
}
