package profile

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := stridedProgram(t, 200, 8)
	orig, err := CollectContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.TotalInsts != orig.TotalInsts {
		t.Fatalf("header mismatch: %s/%d vs %s/%d", got.Name, got.TotalInsts, orig.Name, orig.TotalInsts)
	}
	if len(got.NodeList) != len(orig.NodeList) ||
		len(got.MemList) != len(orig.MemList) ||
		len(got.BranchList) != len(orig.BranchList) {
		t.Fatal("list lengths changed")
	}
	// Maps rebuilt and consistent with lists.
	for _, n := range got.NodeList {
		if got.Nodes[n.Key] != n {
			t.Fatal("node map not rebuilt")
		}
	}
	for _, m := range got.MemList {
		if got.Mem[m.Ref] != m {
			t.Fatal("mem map not rebuilt")
		}
		o := orig.Mem[m.Ref]
		if m.DominantStride != o.DominantStride || m.Count != o.Count ||
			m.MinAddr != o.MinAddr || m.MaxAddr != o.MaxAddr ||
			m.MeanStreamLen != o.MeanStreamLen {
			t.Fatalf("mem stat changed: %+v vs %+v", m, o)
		}
	}
	for _, b := range got.BranchList {
		o := orig.Branches[b.Ref]
		if b.Taken != o.Taken || b.Transitions != o.Transitions || b.Count != o.Count {
			t.Fatal("branch stat changed")
		}
	}
	if got.GlobalMix != orig.GlobalMix {
		t.Fatal("global mix changed")
	}
	if got.StrideCoverage() != orig.StrideCoverage() {
		t.Fatal("derived metrics changed")
	}
}

func TestLoadDetectsAnyBitFlip(t *testing.T) {
	p := stridedProgram(t, 200, 8)
	orig, err := CollectContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Flip one bit at a time across a sample of positions: every flip
	// must turn Load into an error — never a profile with changed values.
	for pos := 0; pos < len(valid); pos += 37 {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(valid)
			mut[pos] ^= 1 << bit
			if bytes.Equal(mut, valid) {
				continue
			}
			got, err := Load(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			// A load that still succeeds must be value-identical (the
			// flip landed in insignificant whitespace/framing).
			var a, b bytes.Buffer
			if orig.Save(&a) == nil && got.Save(&b) == nil && !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("bit flip at byte %d bit %d silently changed the profile", pos, bit)
			}
		}
	}
}

func TestLoadAcceptsLegacyBareJSON(t *testing.T) {
	p := stridedProgram(t, 200, 8)
	orig, err := CollectContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Profile json.RawMessage `json:"profile"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(env.Profile))
	if err != nil {
		t.Fatalf("bare pre-envelope JSON must still load: %v", err)
	}
	if got.Name != orig.Name || got.TotalInsts != orig.TotalInsts {
		t.Fatal("legacy load changed values")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{}`,                      // no name, no nodes
		`{"name":"x","nodes":[]}`, // no nodes
		`{"name":"x","nodes":[{"key":{"prev":0,"block":0},"size":0}]}`, // bad size
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}
