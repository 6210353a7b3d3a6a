package workloads

// Reference tests: every kernel's checksum is recomputed by an
// independent Go mirror of the algorithm operating on the same input data
// (read back from the built program's memory segments), and compared with
// the value the ISA program computes under the functional simulator. A
// mismatch means the hand-assembled kernel does not implement the
// algorithm it claims to.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/prog"
)

// runKernel builds and runs a workload, returning its program, machine and
// result checksum.
func runKernel(t *testing.T, name string) (*prog.Program, int64) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunColumns(funcsim.Limits{MaxInsts: 50_000_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("kernel did not halt")
	}
	v, err := ResultValue(p, m)
	if err != nil {
		t.Fatal(err)
	}
	return p, v
}

// segment returns the raw bytes of a named segment.
func segment(t *testing.T, p *prog.Program, name string) []byte {
	t.Helper()
	for _, s := range p.Segments {
		if s.Name == name {
			return s.Data
		}
	}
	t.Fatalf("program %q has no segment %q", p.Name, name)
	return nil
}

// segWords decodes a segment as int64 words.
func segWords(t *testing.T, p *prog.Program, name string) []int64 {
	raw := segment(t, p, name)
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// segFloats decodes a segment as float64 values.
func segFloats(t *testing.T, p *prog.Program, name string) []float64 {
	raw := segment(t, p, name)
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func TestBasicmathReference(t *testing.T) {
	p, got := runKernel(t, "basicmath")
	in := segFloats(t, p, "input")
	ints := segWords(t, p, "ints")
	degRad := float64(314159) / float64(18000000)
	var accF float64
	var accI int64
	for i, x := range in {
		z := x / 3.0
		for k := 0; k < 10; k++ {
			z2 := z * z
			z3 := z2 * z
			num := z3 - x
			den := 3.0 * z2
			z -= num / den
		}
		z *= degRad
		accF += z
		// Integer sqrt exactly as the kernel computes it.
		v := ints[i]
		root := int64(0)
		bit := int64(1) << 28
		for bit != 0 {
			tt := root + bit
			if v >= tt {
				v -= tt
				root = tt + bit
			}
			root = int64(uint64(root) >> 1)
			bit = int64(uint64(bit) >> 2)
		}
		accI += root
	}
	want := accI + int64(accF)
	if got != want {
		t.Fatalf("checksum: got %d want %d", got, want)
	}
}

func TestBitcountReference(t *testing.T) {
	p, got := runKernel(t, "bitcount")
	data := segWords(t, p, "data")
	var want int64
	for _, v := range data {
		want += 2 * int64(bits.OnesCount64(uint64(v)))
	}
	if got != want {
		t.Fatalf("checksum: got %d want %d", got, want)
	}
}

func TestQsortReference(t *testing.T) {
	p, got := runKernel(t, "qsort")
	arr := segWords(t, p, "array")
	sorted := append([]int64(nil), arr...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var want int64
	for i, v := range sorted {
		want += v ^ int64(8*i)
	}
	if got != want {
		t.Fatalf("checksum: got %d want %d (sortedness or checksum bug)", got, want)
	}
}

func TestSusanReference(t *testing.T) {
	p, got := runKernel(t, "susan")
	img := segment(t, p, "image")
	const (
		w  = 160
		h  = 96
		th = 20
	)
	var want int64
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			c := int64(img[y*w+x])
			cnt := 0
			for _, off := range []int{-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1} {
				n := int64(img[y*w+x+off])
				d := n - c
				if d < 0 {
					d = -d
				}
				if d < th {
					cnt++
				}
			}
			if cnt < 6 {
				want++
			}
		}
	}
	if got != want {
		t.Fatalf("edge count: got %d want %d", got, want)
	}
}

func TestDijkstraReference(t *testing.T) {
	p, got := runKernel(t, "dijkstra")
	adj := segWords(t, p, "adj")
	const (
		v       = 96
		sources = 4
		inf     = int64(1) << 60
	)
	var want int64
	for src := 0; src < sources; src++ {
		dist := make([]int64, v)
		seen := make([]bool, v)
		for i := range dist {
			dist[i] = inf
		}
		dist[src] = 0
		for it := 0; it < v; it++ {
			best, bestI := inf, -1
			for i := 0; i < v; i++ {
				if !seen[i] && dist[i] < best {
					best, bestI = dist[i], i
				}
			}
			if bestI < 0 {
				break
			}
			seen[bestI] = true
			for j := 0; j < v; j++ {
				w := adj[bestI*v+j]
				if w >= inf {
					continue
				}
				if best+w < dist[j] {
					dist[j] = best + w
				}
			}
		}
		for i := 0; i < v; i++ {
			if dist[i] < inf {
				want += dist[i]
			}
		}
	}
	if got != want {
		t.Fatalf("distance sum: got %d want %d", got, want)
	}
}

func TestPatriciaReference(t *testing.T) {
	p, got := runKernel(t, "patricia")
	trie := segment(t, p, "trie")
	queries := segWords(t, p, "queries")
	// Walk the trie exactly as the kernel does, over the same memory
	// image. The root address is the target of the kernel's initial Li;
	// recover it by reading the entry block.
	var rootAddr uint64
	for _, in := range p.Blocks[0].Insts {
		if in.Rd == 10 { // rRoot in buildPatricia
			rootAddr = uint64(in.Imm)
		}
	}
	if rootAddr == 0 {
		t.Fatal("could not recover trie root address")
	}
	trieBase := p.Segments[0].Base // "trie" is the first segment
	node := func(addr uint64) (bit int64, left, right uint64, key int64) {
		off := addr - trieBase
		bit = int64(binary.LittleEndian.Uint64(trie[off:]))
		left = binary.LittleEndian.Uint64(trie[off+8:])
		right = binary.LittleEndian.Uint64(trie[off+16:])
		key = int64(binary.LittleEndian.Uint64(trie[off+24:]))
		return
	}
	var want int64
	for _, q := range queries {
		addr := rootAddr
		for {
			bit, left, right, key := node(addr)
			if bit < 0 {
				if key == q {
					want++
				}
				break
			}
			if (q>>(31-uint(bit)))&1 != 0 {
				addr = right
			} else {
				addr = left
			}
		}
	}
	if got != want {
		t.Fatalf("hit count: got %d want %d", got, want)
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	p, got := runKernel(t, "crc32")
	data := segment(t, p, "data")
	want := int64(crc32.ChecksumIEEE(data))
	if got != want {
		t.Fatalf("CRC: got %#x want %#x (stdlib hash/crc32)", got, want)
	}
}

func TestFFTReference(t *testing.T) {
	p, got := runKernel(t, "fft")
	re := segFloats(t, p, "re")
	im := segFloats(t, p, "im")
	cosT := segFloats(t, p, "cos")
	sinT := segFloats(t, p, "sin")
	rev := segWords(t, p, "rev")
	const n = 1024
	// Bit reversal (rev holds byte offsets).
	for i := 0; i < n; i++ {
		j := int(rev[i] / 8)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for l := 2; l <= n; l <<= 1 {
		half := l / 2
		step := n / l
		for i := 0; i < n; i += l {
			for j := 0; j < half; j++ {
				wre := cosT[j*step]
				wim := sinT[j*step]
				a, b := i+j, i+j+half
				tre := re[b]*wre - im[b]*wim
				tim := re[b]*wim + im[b]*wre
				re[b] = re[a] - tre
				im[b] = im[a] - tim
				re[a] += tre
				im[a] += tim
			}
		}
	}
	var acc float64
	for i := 0; i < n; i++ {
		acc += re[i]*re[i] + im[i]*im[i]
	}
	want := int64(acc)
	if got != want {
		t.Fatalf("power checksum: got %d want %d", got, want)
	}
	// Sanity beyond the mirror: Parseval's theorem says the output
	// power equals N times the input power.
	reIn := segFloats(t, p, "re")
	imIn := segFloats(t, p, "im")
	var inPow float64
	for i := range reIn {
		inPow += reIn[i]*reIn[i] + imIn[i]*imIn[i]
	}
	if ratio := acc / (inPow * n); ratio < 0.999 || ratio > 1.001 {
		t.Fatalf("Parseval violated: output/N·input = %f", ratio)
	}
}

func TestADPCMReference(t *testing.T) {
	p, got := runKernel(t, "adpcm")
	in := segWords(t, p, "samples")
	var want int64
	pred, idx := int64(0), int64(0)
	for _, s := range in {
		step := imaStepTable[idx]
		diff := s - pred
		sign := int64(0)
		if diff < 0 {
			sign = 8
			diff = -diff
		}
		delta := int64(0)
		vp := step >> 3
		for _, bit := range []int64{4, 2, 1} {
			if diff >= step {
				delta += bit
				diff -= step
				vp += step
			}
			step >>= 1
		}
		if sign != 0 {
			pred -= vp
		} else {
			pred += vp
		}
		if pred >= 32767 {
			pred = 32767
		}
		if pred < -32768 {
			pred = -32768
		}
		idx += imaIndexTable[delta]
		if idx < 0 {
			idx = 0
		}
		if idx > 88 {
			idx = 88
		}
		code := delta | sign
		want += code
	}
	if got != want {
		t.Fatalf("ADPCM checksum: got %d want %d", got, want)
	}
}

func TestGSMReference(t *testing.T) {
	p, got := runKernel(t, "gsm")
	in := segWords(t, p, "speech")
	const (
		frame  = 160
		frames = 48
		lags   = 9
	)
	var want int64
	for f := 0; f < frames; f++ {
		base := f * frame
		for k := 0; k < lags; k++ {
			var acc int64
			for i := 0; i < frame-k; i++ {
				acc += in[base+i] * in[base+i+k]
			}
			want += acc >> 15
		}
	}
	if got != want {
		t.Fatalf("autocorrelation checksum: got %d want %d", got, want)
	}
}
