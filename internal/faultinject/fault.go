package faultinject

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	iofs "io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Plan is one reproducible fault schedule. Probabilities are per
// operation in [0,1]; at most one fault fires per operation. The zero
// Plan injects nothing.
type Plan struct {
	// Seed fixes every fault decision. Two FaultFS with the same Plan
	// observe identical faults for identical per-path operation
	// sequences, regardless of cross-path interleaving.
	Seed uint64
	// Transient is the probability of a transient EIO on any operation
	// (open, read, write, sync, close, rename, remove, mkdir, readdir,
	// stat).
	Transient float64
	// NoSpace is the probability of ENOSPC on a write or sync.
	NoSpace float64
	// TornWrite is the probability that a write persists only a prefix
	// of its buffer and then fails with a transient EIO.
	TornWrite float64
	// BitFlip is the probability that a read silently flips one bit in
	// the returned buffer (the CRC/self-check layers must catch it).
	BitFlip float64
	// RenameFail is the probability that a rename fails with a
	// transient EBUSY.
	RenameFail float64
	// MaxLatency, when nonzero, injects a uniform [0, MaxLatency) delay
	// before every operation.
	MaxLatency time.Duration
}

// faultKind enumerates the injectable faults.
type faultKind int

const (
	kNone faultKind = iota
	kTransient
	kNoSpace
	kTorn
	kBitFlip
	kRename
)

// FaultFS wraps an inner FS and injects Plan-scheduled faults.
type FaultFS struct {
	inner FS
	plan  Plan
	sleep func(time.Duration)

	mu       sync.Mutex
	seq      map[string]uint64
	injected uint64
}

// New wraps inner with plan. The sleep seam (latency injection) defaults
// to time.Sleep; SetSleep replaces it in tests.
func New(inner FS, plan Plan) *FaultFS {
	return &FaultFS{inner: inner, plan: plan, sleep: time.Sleep, seq: make(map[string]uint64)}
}

// SetSleep replaces the latency clock (test seam).
func (f *FaultFS) SetSleep(fn func(time.Duration)) { f.sleep = fn }

// Injected returns how many faults have fired so far.
func (f *FaultFS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// keyPath normalizes a path for fault-decision keying: temp files carry
// a random suffix that would make decisions irreproducible, so the key
// truncates at the ".tmp" marker the store uses; and only the last two
// path components survive, so a fault schedule replays exactly even when
// the store root moves (each chaos run gets a fresh temp dir).
func keyPath(path string) string {
	if i := strings.Index(path, ".tmp"); i >= 0 {
		path = path[:i+len(".tmp")]
	}
	dir, base := filepath.Split(filepath.Clean(path))
	parent := filepath.Base(filepath.Clean(dir))
	if parent == "." || parent == string(filepath.Separator) {
		return base
	}
	return parent + "/" + base
}

// roll derives the RNG for the n-th occurrence of (op, path). The state
// is a pure function of (seed, op, keyPath(path), n): reproducible from
// the seed, independent of scheduling across other paths.
func (f *FaultFS) roll(op, path string) *rand.Rand {
	path = keyPath(path)
	f.mu.Lock()
	key := op + "\x00" + path
	n := f.seq[key]
	f.seq[key] = n + 1
	f.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(path))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	h.Write(b[:])
	return rand.New(rand.NewPCG(f.plan.Seed, h.Sum64()))
}

func (f *FaultFS) prob(k faultKind) float64 {
	switch k {
	case kTransient:
		return f.plan.Transient
	case kNoSpace:
		return f.plan.NoSpace
	case kTorn:
		return f.plan.TornWrite
	case kBitFlip:
		return f.plan.BitFlip
	case kRename:
		return f.plan.RenameFail
	}
	return 0
}

// decide injects latency, then selects at most one fault among kinds
// (evaluated in the given fixed order from a single uniform draw).
// It returns the surviving RNG for fault parameters (flip position,
// torn-write length).
func (f *FaultFS) decide(op, path string, kinds ...faultKind) (faultKind, *rand.Rand) {
	r := f.roll(op, path)
	if f.plan.MaxLatency > 0 {
		f.sleep(time.Duration(r.Int64N(int64(f.plan.MaxLatency))))
	}
	u := r.Float64()
	for _, k := range kinds {
		p := f.prob(k)
		if u < p {
			f.mu.Lock()
			f.injected++
			f.mu.Unlock()
			return k, r
		}
		u -= p
	}
	return kNone, r
}

func pathErr(op, path string, errno syscall.Errno) error {
	return MarkTransient(&os.PathError{Op: "faultinject " + op, Path: path, Err: errno})
}

func (f *FaultFS) Open(name string) (File, error) {
	if k, _ := f.decide("open", name, kTransient); k != kNone {
		return nil, pathErr("open", name, syscall.EIO)
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, key: name}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	if k, _ := f.decide("openfile", name, kTransient); k != kNone {
		return nil, pathErr("openfile", name, syscall.EIO)
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, key: name}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	key := dir + "/" + pattern
	if k, _ := f.decide("create", key, kTransient); k != kNone {
		return nil, pathErr("create", key, syscall.EIO)
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, key: key}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	// Keyed by the destination: the source of an atomic commit is a
	// randomly named temp file.
	switch k, _ := f.decide("rename", newpath, kTransient, kRename); k {
	case kTransient:
		return pathErr("rename", newpath, syscall.EIO)
	case kRename:
		return pathErr("rename", newpath, syscall.EBUSY)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if k, _ := f.decide("remove", name, kTransient); k != kNone {
		return pathErr("remove", name, syscall.EIO)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm iofs.FileMode) error {
	if k, _ := f.decide("mkdir", path, kTransient); k != kNone {
		return pathErr("mkdir", path, syscall.EIO)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	if k, _ := f.decide("readdir", name, kTransient); k != kNone {
		return nil, pathErr("readdir", name, syscall.EIO)
	}
	return f.inner.ReadDir(name)
}

// Map reads the file through this FaultFS's own faulty Open/Read path,
// so chaos runs exercise the store's trace load (dyntrace.LoadBytes)
// under the full fault schedule: injected EIOs surface as transient Map
// errors and bit-flips land in the returned image for the CRC layer to
// catch. The bytes are a heap copy, so release is a no-op.
func (f *FaultFS) Map(name string) (data []byte, release func() error, err error) {
	file, err := f.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	data, err = io.ReadAll(file)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

func (f *FaultFS) Stat(name string) (iofs.FileInfo, error) {
	if k, _ := f.decide("stat", name, kTransient); k != kNone {
		return nil, pathErr("stat", name, syscall.EIO)
	}
	return f.inner.Stat(name)
}

// faultFile wraps an open file; per-I/O faults key on the logical path
// the file was opened under, not the (possibly random) real name.
type faultFile struct {
	f   File
	fs  *FaultFS
	key string
}

func (w *faultFile) Read(p []byte) (int, error) {
	k, r := w.fs.decide("read", w.key, kTransient, kBitFlip)
	switch k {
	case kTransient:
		return 0, pathErr("read", w.key, syscall.EIO)
	case kBitFlip:
		n, err := w.f.Read(p)
		if n > 0 {
			p[r.IntN(n)] ^= 1 << r.IntN(8)
		}
		return n, err
	}
	return w.f.Read(p)
}

func (w *faultFile) Write(p []byte) (int, error) {
	k, _ := w.fs.decide("write", w.key, kTransient, kNoSpace, kTorn)
	switch k {
	case kTransient:
		return 0, pathErr("write", w.key, syscall.EIO)
	case kNoSpace:
		return 0, pathErr("write", w.key, syscall.ENOSPC)
	case kTorn:
		// Persist a prefix, then fail: the on-disk state is a torn write
		// exactly like a crash mid-append would leave.
		n, err := w.f.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, pathErr("write", w.key, syscall.EIO)
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	switch k, _ := w.fs.decide("sync", w.key, kTransient, kNoSpace); k {
	case kTransient:
		return pathErr("sync", w.key, syscall.EIO)
	case kNoSpace:
		return pathErr("sync", w.key, syscall.ENOSPC)
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	// The real descriptor is always released; only the reported status
	// is faulted.
	err := w.f.Close()
	if k, _ := w.fs.decide("close", w.key, kTransient); k != kNone {
		return pathErr("close", w.key, syscall.EIO)
	}
	return err
}

func (w *faultFile) Name() string { return w.f.Name() }
