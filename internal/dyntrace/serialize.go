package dyntrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

// On-disk trace format, PCDT v4 (all integers little-endian). It holds
// only the run's choices: each conditional branch's direction, and a
// hit bit per reference with a residual per miss (below); a walk
// rebuilds the static ids, taken bits and store bits from the program.
// The bitsets stay raw and the header is padded so they land
// 8-byte-aligned in the file: a zero-copy loader (LoadBytes, fed by the
// store's mmap path) can alias them in place and replay straight out of
// the page cache. Any other version is rejected as unsupported; the
// store quarantines such an image and recomputes the trace.
//
//	magic   [4]byte "PCDT"
//	version uint32  (4)
//	nameLen uint32, name []byte
//	insts   uint64
//	halted  uint8
//	numMem  uint64  (memory references == hit bits)
//	nBranch uint64  (dynamic conditional branches == branch bits)
//	residLen uint64 (residual stream bytes)
//	pad     []byte  (zeros, to an 8-aligned file offset)
//	branch  []uint64 (⌈nBranch/64⌉ words, raw; bit k: branch k was taken)
//	hits    []uint64 (⌈numMem/64⌉ words, raw; bit j: reference j was predicted)
//	resid   []byte   (zigzag varint of address − last per reference missed)
//	crc32   uint32   (IEEE, over everything after the version field)
//
// Bits past nBranch and numMem are zero. The predictor keeps a (last,
// stride) pair per static memory instruction, both starting at 0. A
// reference hits iff its address is last + stride (wrapping); a miss
// stores address − last, which becomes the stride. Either way the
// address becomes last.
//
// The static table is not serialized either: it is a pure function of
// the traced program, and the store keys trace files by a hash of that
// program, so LoadBytes rebuilds it with buildStatic and then replays
// the path against the header (see Trace.check). That keeps the format
// free of isa enum encodings and makes a program/trace mismatch a
// load-time error instead of a silent misreplay.

const (
	traceMagic   = "PCDT"
	traceVersion = 4
)

// hostLittleEndian gates the zero-copy bitset alias: on a big-endian
// host the raw little-endian words must be byte-swapped into a copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// headerLen is the byte length of the fixed header fields after the
// name: insts + halted + numMem + nBranch + residLen.
const headerLen = 8 + 1 + 8 + 8 + 8

// headerPad returns the zero-padding length that 8-aligns the branch
// bitset for a trace name of the given length.
func headerPad(nameLen int) int {
	off := 8 + 4 + nameLen + headerLen // magic+version, nameLen, name, fixed fields
	return (8 - off%8) % 8
}

// Save writes the trace in the current (v4) binary format. A trace
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
		t.insts, halted, t.numMem, t.nBranch, uint64(len(t.resid)),
		pad[:headerPad(len(name))],
		t.branch, t.hits, t.resid,
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
// CRC-checking everything and aliasing the bitsets and the residuals
// into data — the zero-copy path behind the store's mmap load. It
// returns the trace's name and its columns, not yet attached to a
// program.
func parseImage(data []byte) (string, *Trace, error) {
	if err := checkHeader(data); err != nil {
		return "", nil, err
	}
	if len(data) < 8+4+headerLen+4 {
		return "", nil, fmt.Errorf("dyntrace: load: truncated trace (%d bytes)", len(data))
	}
	body, tail := data[8:len(data)-4], data[len(data)-4:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.LittleEndian.Uint32(tail) {
		return "", nil, fmt.Errorf("dyntrace: load: checksum mismatch (file %08x, computed %08x)",
			binary.LittleEndian.Uint32(tail), sum)
	}
	off := 8
	nameLen := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if nameLen > 1<<16 {
		return "", nil, fmt.Errorf("dyntrace: load: implausible name length %d", nameLen)
	}
	if len(data)-off < int(nameLen)+headerLen+4 {
		return "", nil, fmt.Errorf("dyntrace: load: truncated header")
	}
	name := string(data[off : off+int(nameLen)])
	off += int(nameLen)
	t := &Trace{insts: binary.LittleEndian.Uint64(data[off:]), halted: data[off+8] != 0}
	t.numMem = binary.LittleEndian.Uint64(data[off+9:])
	t.nBranch = binary.LittleEndian.Uint64(data[off+17:])
	residLen := binary.LittleEndian.Uint64(data[off+25:])
	off += headerLen
	if t.insts > maxColumn || t.numMem > maxColumn || t.nBranch > maxColumn || residLen > maxColumn {
		return "", nil, fmt.Errorf("dyntrace: load %s: implausible column lengths %d/%d/%d/%d",
			name, t.insts, t.numMem, t.nBranch, residLen)
	}
	off += headerPad(int(nameLen))
	nBranchW, nHitW := (t.nBranch+63)/64, (t.numMem+63)/64
	need := nBranchW*8 + nHitW*8 + residLen
	if uint64(len(data)-off-4) != need {
		return "", nil, fmt.Errorf("dyntrace: load %s: payload is %d bytes, header claims %d",
			name, len(data)-off-4, need)
	}
	t.branch = aliasU64(data[off:], nBranchW)
	off += int(nBranchW) * 8
	t.hits = aliasU64(data[off:], nHitW)
	off += int(nHitW) * 8
	t.resid = data[off : off+int(residLen) : off+int(residLen)]
	return name, t, nil
}

// checkColumns checks what binds the columns to each other without the
// program: no bit is set past nBranch or numMem, and the residual stream
// holds one well-formed varint per reference that missed and not a byte
// more.
func (t *Trace) checkColumns() error {
	if t.nBranch&63 != 0 && t.branch[t.nBranch>>6]>>(t.nBranch&63) != 0 {
		return fmt.Errorf("branch bitset has bits set past its %d directions", t.nBranch)
	}
	if t.numMem&63 != 0 && t.hits[t.numMem>>6]>>(t.numMem&63) != 0 {
		return fmt.Errorf("hit bitset has bits set past its %d references", t.numMem)
	}
	misses := t.numMem
	for _, w := range t.hits {
		misses -= uint64(bits.OnesCount64(w))
	}
	var n uint64
	for off := 0; off < len(t.resid); n++ {
		_, w := binary.Uvarint(t.resid[off:])
		if w <= 0 {
			return fmt.Errorf("residual stream is malformed at byte %d", off)
		}
		off += w
	}
	if n != misses {
		return fmt.Errorf("residual stream holds %d varints, the hit bits leave %d misses", n, misses)
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
// and pad bits, and a residual stream of exactly one varint per
// reference that missed (checkColumns). The store's doctor pass uses it
// to audit artifacts it cannot attach to a program (the path replay is
// only possible in LoadBytes).
func Verify(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("dyntrace: load: %w", err)
	}
	name, t, err := parseImage(data)
	if err != nil {
		return err
	}
	if err := t.checkColumns(); err != nil {
		return fmt.Errorf("dyntrace: verify %s: %w", name, err)
	}
	return nil
}

// LoadBytes loads a serialized trace from an in-memory image — usually
// a read-only mmap of a store artifact. The bitsets are aliased in place
// (when aligned, on little-endian hosts) and the residuals kept as a
// subslice, so nothing is copied at load time; release, when non-nil,
// is adopted by the returned Trace and invoked by Close to drop the
// mapping. On error, ownership of release stays with the caller.
func LoadBytes(data []byte, release func() error, p *prog.Program) (*Trace, error) {
	name, t, err := parseImage(data)
	if err != nil {
		return nil, err
	}
	if name != p.Name {
		return nil, fmt.Errorf("dyntrace: load: trace is for %q, not %q", name, p.Name)
	}
	t.prog, t.static = p, buildStatic(p)
	t.flow = buildFlow(p, t.static)
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("dyntrace: load %s: %w", name, err)
	}
	t.release = release
	return t, nil
}

// check validates the trace against its program, so corruption or a
// program mismatch surfaces before any consumer replays garbage. It
// replays the path over the first insts instructions: the path must not
// halt before them, it must take exactly nBranch conditional branches
// and make exactly numMem memory references, and halted must be set
// exactly when the last instruction is a halt. Then the columns must
// pass checkColumns, so that every walk within insts decodes.
func (t *Trace) check() error {
	p := t.start()
	if err := p.follow(nil, nil, t.insts, math.MaxUint64, nil, nil); err != nil {
		return fmt.Errorf("header claims %d instructions: %w", t.insts, err)
	}
	if p.bn != t.nBranch {
		return fmt.Errorf("path takes %d conditional branches, header claims %d", p.bn, t.nBranch)
	}
	if p.mi != t.numMem {
		return fmt.Errorf("path makes %d memory references, header claims %d", p.mi, t.numMem)
	}
	// After the last instruction the path stands just past it, in its block.
	halted := t.insts > 0 && t.static[p.sid-1].Op == isa.OpHalt
	if halted != t.halted {
		return fmt.Errorf("header says halted=%v, path's last instruction is a halt: %v", t.halted, halted)
	}
	return t.checkColumns()
}
