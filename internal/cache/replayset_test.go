package cache

import (
	"context"
	"encoding/binary"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// checkAgainstCaches feeds addrs/storeBits to a ReplaySet over cfgs and
// to one standalone Cache per configuration, and requires every
// configuration's Stats to match exactly. It returns the replay set's
// Stats.
func checkAgainstCaches(t *testing.T, cfgs []Config, addrs, storeBits []uint64) []Stats {
	t.Helper()
	rs, err := NewReplaySet(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.AccessStreamContext(context.Background(), addrs, storeBits); err != nil {
		t.Fatal(err)
	}
	out := rs.Stats()
	for i, got := range out {
		c := MustNew(cfgs[i])
		for k, a := range addrs {
			c.Access(a, storeBits[k>>6]>>(uint(k)&63)&1 == 1)
		}
		if want := c.Stats(); got != want {
			t.Errorf("%s: replay set %+v, standalone cache %+v", cfgs[i], got, want)
		}
	}
	return out
}

// fuzzConfigs decodes three bytes per configuration, up to four
// configurations: line size 16–128 B, 1–1024 lines, and any
// associativity that divides the line count, including fully
// associative. This cap and fuzzStream's keep one execution near a
// millisecond: the fuzzer re-runs every new input many times while
// minimizing it, and the reference caches scan up to 1024 ways.
func fuzzConfigs(b []byte) []Config {
	var cfgs []Config
	for ; len(b) >= 3 && len(cfgs) < 4; b = b[3:] {
		line := 16 << (b[0] % 4)
		logLines := int(b[1] % 11)
		cfg := Config{Size: line << logLines, LineSize: line}
		if k := int(b[2]) % (logLines + 2); k > 0 {
			cfg.Assoc = 1 << (k - 1)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// fuzzStream decodes two bytes per reference: a 16-byte-granular address
// in a 512 KB window and a store flag, up to 256 references. The stream
// is replayed three times so that lines are reused after leaving the
// smaller caches.
func fuzzStream(b []byte) (addrs, storeBits []uint64) {
	if len(b) > 512 {
		b = b[:512]
	}
	for pass := 0; pass < 3; pass++ {
		for k := 0; k+1 < len(b); k += 2 {
			v := binary.LittleEndian.Uint16(b[k:])
			i := len(addrs)
			if i%64 == 0 {
				storeBits = append(storeBits, 0)
			}
			if v&0x8000 != 0 {
				storeBits[i/64] |= 1 << (i % 64)
			}
			addrs = append(addrs, uint64(v&0x7fff)<<4)
		}
	}
	return addrs, storeBits
}

// FuzzReplaySet checks the one-pass stack-distance sweep against
// standalone caches: for any set of LRU configurations and any reference
// stream, every configuration's Accesses, Misses and Writebacks must
// equal those of its own Cache.
func FuzzReplaySet(f *testing.F) {
	seq := make([]byte, 0, 256)
	for i := 0; i < 128; i++ {
		v := uint16(i*37%300) | uint16(i%3/2)<<15
		seq = binary.LittleEndian.AppendUint16(seq, v)
	}
	f.Add([]byte{1, 3, 1, 1, 3, 2, 1, 3, 3, 1, 3, 0}, seq)    // 256 B × {1, 2, 4, full}
	f.Add([]byte{0, 10, 0, 3, 10, 11, 2, 6, 4, 1, 9, 5}, seq) // full 1024-line, deep groups
	f.Add([]byte{1, 0, 0, 1, 0, 1}, []byte{1, 0, 2, 0x80, 1, 0})
	f.Fuzz(func(t *testing.T, cfgBytes, stream []byte) {
		cfgs := fuzzConfigs(cfgBytes)
		if len(cfgs) == 0 {
			return
		}
		addrs, storeBits := fuzzStream(stream)
		checkAgainstCaches(t, cfgs, addrs, storeBits)
	})
}

// TestReplaySetMatchesCachesOnWorkloadTraces runs the paper's 28
// configurations over real and clone traces at the figures' cache-sweep
// budget (twice the 500k-instruction timing budget) and requires every
// configuration, writebacks included, to match a standalone cache.
func TestReplaySetMatchesCachesOnWorkloadTraces(t *testing.T) {
	const budget = 1_000_000
	var writebacks uint64
	for _, name := range []string{"crc32", "qsort", "fft", "adpcm"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			real := w.Build()
			prof, err := profile.CollectContext(context.Background(), real, profile.Options{MaxInsts: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			clone, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*prog.Program{real, clone.Program} {
				tr, err := dyntrace.CaptureContext(context.Background(), p, budget)
				if err != nil {
					t.Fatal(err)
				}
				addrs, storeBits := tr.Mem(budget)
				for _, st := range checkAgainstCaches(t, Sweep28(), addrs, storeBits) {
					writebacks += st.Writebacks
				}
			}
		})
	}
	if writebacks == 0 {
		t.Error("no configuration wrote anything back; the writeback comparison is vacuous")
	}
}
