package synth

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/workloads"
)

// randomProfile fabricates a structurally valid profile from a PRNG seed:
// a random SFG over a handful of blocks, with random mixes, dependency
// distances, memory intervals/strides and branch statistics. It exercises
// the generator far from the workload corpus.
func randomProfile(seed uint64) *profile.Profile {
	s := seed | 1
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545f4914f6cdd1d
	}
	nBlocks := 2 + int(next()%8)
	p := &profile.Profile{
		Name:     "fuzz",
		Nodes:    make(map[profile.NodeKey]*profile.Node),
		Mem:      make(map[profile.StaticRef]*profile.MemStat),
		Branches: make(map[profile.StaticRef]*profile.BranchStat),
	}
	for b := 0; b < nBlocks; b++ {
		n := &profile.Node{
			Key:  profile.NodeKey{Prev: -1, Block: b},
			Size: 1 + int(next()%20),
			Term: profile.TermKind(next() % 3), // fall, branch, jump
			Succ: map[int]uint64{int(next() % uint64(nBlocks)): 1 + next()%100},
		}
		n.Count = 1 + next()%10000
		for c := 0; c < isa.NumClasses; c++ {
			n.ClassCounts[c] = next() % 1000
		}
		n.ClassCounts[isa.ClassIntALU]++ // an executed node cannot have an empty histogram
		n.ClassCounts[isa.ClassHalt] = 0
		for i := 0; i < profile.NumDepBuckets; i++ {
			n.DepDist[i] = next() % 100
		}
		for c := 0; c < isa.NumClasses; c++ {
			p.GlobalMix[c] += n.ClassCounts[c]
		}
		for i := 0; i < profile.NumDepBuckets; i++ {
			p.GlobalDepDist[i] += n.DepDist[i]
		}
		p.Nodes[n.Key] = n
		p.NodeList = append(p.NodeList, n)
		p.TotalInsts += n.Count * uint64(n.Size)

		if n.Term == profile.TermBranch {
			count := 1 + next()%5000
			bs := &profile.BranchStat{
				Ref:   profile.StaticRef{Block: b, Index: n.Size - 1},
				Count: count,
				Taken: next() % (count + 1),
			}
			if count > 1 {
				bs.Transitions = next() % count
			}
			p.Branches[bs.Ref] = bs
			p.BranchList = append(p.BranchList, bs)
		}
		// 0-3 memory ops per block.
		for mi, nm := 0, int(next()%4); mi < nm && mi < n.Size-1; mi++ {
			ops := []isa.Op{isa.OpLd, isa.OpLd1, isa.OpLd4, isa.OpSt, isa.OpSt4, isa.OpSt1, isa.OpFLd, isa.OpFSt}
			lo := next() % (1 << 20)
			span := 8 + next()%(1<<16)
			m := &profile.MemStat{
				Ref:            profile.StaticRef{Block: b, Index: mi},
				Op:             ops[next()%uint64(len(ops))],
				Count:          1 + next()%50000,
				DominantStride: int64(next()%512) - 256,
				FirstAddr:      lo,
				MinAddr:        lo,
				MaxAddr:        lo + span,
				MeanStreamLen:  1 + float64(next()%1000),
			}
			m.DominantCount = m.Count / 2
			p.Mem[m.Ref] = m
			p.MemList = append(p.MemList, m)
		}
	}
	return p
}

// TestGenerateFromRandomProfiles: whatever (structurally valid) profile
// comes in, the generator must emit a program that validates and runs to
// halt without memory errors.
func TestGenerateFromRandomProfiles(t *testing.T) {
	fn := func(seed uint64) bool {
		prof := randomProfile(seed)
		clone, err := GenerateContext(context.Background(), prof, Config{Iterations: 30})
		if err != nil {
			t.Logf("seed %d: generate error: %v", seed, err)
			return false
		}
		m, err := funcsim.New(clone.Program)
		if err != nil {
			t.Logf("seed %d: invalid program: %v", seed, err)
			return false
		}
		res, err := m.RunColumns(funcsim.Limits{MaxInsts: 5_000_000}, nil)
		if err != nil {
			t.Logf("seed %d: run error: %v", seed, err)
			return false
		}
		if !res.Halted {
			t.Logf("seed %d: did not halt", seed)
			return false
		}
		// The generated program must also survive the assembly round
		// trip (clones ship as .s files).
		reparsed, err := prog.Parse(strings.NewReader(clone.Program.DumpAsm()))
		if err != nil {
			t.Logf("seed %d: asm round trip: %v", seed, err)
			return false
		}
		if reparsed.Disassemble() != clone.Program.Disassemble() {
			t.Logf("seed %d: asm round trip changed the program", seed)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzGenerate feeds the generator serialized profiles under byte-level
// mutation. The contract at this boundary: any input either fails
// profile.Load, fails Generate with an error, or yields a valid program
// that runs to halt — never a panic. Seeds cover both the checksummed
// envelope and the legacy bare-JSON form (the envelope's CRC rejects most
// mutations, so the bare form is where the fuzzer actually explores
// semantic corruption).
func FuzzGenerate(f *testing.F) {
	for _, name := range []string{"crc32", "fft", "qsort"} {
		w, err := workloads.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		p, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 50_000})
		if err != nil {
			f.Fatal(err)
		}
		var env bytes.Buffer
		if err := p.Save(&env); err != nil {
			f.Fatal(err)
		}
		f.Add(env.Bytes())
		bare, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bare)
	}
	f.Add([]byte(`{"name":"x","nodeList":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.Load(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		clone, err := GenerateContext(context.Background(), p, Config{Iterations: 5})
		if err != nil {
			// A loadable profile the generator rejects with an error is
			// fine; only a panic (caught by the fuzz driver) is a bug.
			return
		}
		m, err := funcsim.New(clone.Program)
		if err != nil {
			t.Fatalf("generated invalid program: %v", err)
		}
		res, err := m.RunColumns(funcsim.Limits{MaxInsts: 2_000_000}, nil)
		if err != nil {
			t.Fatalf("clone failed to run: %v", err)
		}
		if !res.Halted {
			t.Fatal("clone did not halt within the instruction limit")
		}
	})
}
