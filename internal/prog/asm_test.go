package prog

import (
	"errors"
	"strings"
	"testing"

	"perfclone/internal/isa"
)

func TestAsmRoundTrip(t *testing.T) {
	b := NewBuilder("round")
	data := b.Words("tbl", []int64{3, -7, 1 << 40})
	buf := b.Zeros("buf", 128)
	b.Label("entry")
	b.Li(isa.IntReg(1), int64(data))
	b.Li(isa.IntReg(2), int64(buf))
	b.Li(isa.IntReg(3), 5)
	b.Label("loop")
	b.Ld(isa.IntReg(4), isa.IntReg(1), 8)
	b.Addi(isa.IntReg(4), isa.IntReg(4), -1)
	b.St(isa.IntReg(4), isa.IntReg(2), 16)
	b.FLd(isa.FPReg(0), isa.IntReg(1), 0)
	b.FAdd(isa.FPReg(1), isa.FPReg(0), isa.FPReg(0))
	b.FSt(isa.FPReg(1), isa.IntReg(2), 0)
	b.CvtFI(isa.IntReg(5), isa.FPReg(1))
	b.Addi(isa.IntReg(3), isa.IntReg(3), -1)
	b.Bne(isa.IntReg(3), isa.RZero, "loop")
	b.Label("tail")
	b.Jmp("end")
	b.Label("end")
	b.Halt()
	orig := b.MustBuild()

	text := orig.DumpAsm()
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if got.Name != orig.Name || got.MemSize != orig.MemSize {
		t.Fatalf("header mismatch")
	}
	if len(got.Blocks) != len(orig.Blocks) {
		t.Fatalf("block count %d vs %d", len(got.Blocks), len(orig.Blocks))
	}
	for bi := range orig.Blocks {
		ob, gb := orig.Blocks[bi], got.Blocks[bi]
		if len(ob.Insts) != len(gb.Insts) {
			t.Fatalf("block %d: inst count %d vs %d", bi, len(gb.Insts), len(ob.Insts))
		}
		for ii := range ob.Insts {
			if ob.Insts[ii] != gb.Insts[ii] {
				t.Fatalf("block %d inst %d: %v vs %v", bi, ii, gb.Insts[ii], ob.Insts[ii])
			}
		}
	}
	if len(got.Segments) != len(orig.Segments) {
		t.Fatalf("segments %d vs %d", len(got.Segments), len(orig.Segments))
	}
	for si := range orig.Segments {
		os, gs := orig.Segments[si], got.Segments[si]
		if os.Name != gs.Name || os.Base != gs.Base || len(os.Data) != len(gs.Data) {
			t.Fatalf("segment %d header mismatch", si)
		}
		for i := range os.Data {
			if os.Data[i] != gs.Data[i] {
				t.Fatalf("segment %d byte %d differs", si, i)
			}
		}
	}
	// A second round trip must be textually identical (fixpoint).
	if got.DumpAsm() != text {
		t.Fatal("DumpAsm not a fixpoint")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"inst before block", ".program x\n.memsize 64\nadd r1, r2, r3\n"},
		{"unknown mnemonic", ".program x\n.memsize 64\n.B0:\nfrobnicate r1, r2, r3\n.B1:\nhalt\n"},
		{"bad register", ".program x\n.memsize 64\n.B0:\nadd r99, r2, r3\n.B1:\nhalt\n"},
		{"out-of-order block", ".program x\n.memsize 64\n.B1:\nhalt\n"},
		{"target out of range", ".program x\n.memsize 64\n.B0:\njmp .B9\n"},
		{"data outside segment", ".program x\n.memsize 64\n.data ff\n.B0:\nhalt\n"},
		{"bad hex", ".program x\n.memsize 64\n.segment s 0\n.data zz\n.B0:\nhalt\n"},
		{"wrong operand count", ".program x\n.memsize 64\n.B0:\nadd r1, r2\n.B1:\nhalt\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.text)); err == nil {
				t.Fatalf("accepted %q", c.text)
			}
		})
	}
}

// TestParseRoundTripPreservesLabels verifies the `.Bn: ; label` form.
func TestParseRoundTripPreservesLabels(t *testing.T) {
	b := NewBuilder("lbl")
	b.Label("first")
	b.Li(isa.IntReg(1), 1)
	b.Label("second")
	b.Halt()
	p := b.MustBuild()
	got, err := Parse(strings.NewReader(p.DumpAsm()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks[0].Label != "first" || got.Blocks[1].Label != "second" {
		t.Fatalf("labels lost: %q %q", got.Blocks[0].Label, got.Blocks[1].Label)
	}
}

func TestParseMinimal(t *testing.T) {
	text := `.program mini
.memsize 128
.reserve buf 0 64
.B0: ; entry
	lui r1, 42
	st r1, 0(r0)
	halt
`
	p, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mini" || len(p.Blocks) != 1 || len(p.Segments) != 1 {
		t.Fatalf("parsed %+v", p)
	}
}

// failAfter accepts n writes and then fails every one.
type failAfter struct {
	n      int
	writes int
	got    strings.Builder
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("disk full")
	}
	return f.got.Write(p)
}

// TestWriteAsmStreamsDumpAsm: WriteAsm writes exactly DumpAsm's bytes,
// in several writes for a data image larger than its buffer, and the
// listing ends with Disassemble's text. A failing writer's error comes
// back and nothing is written after it.
func TestWriteAsmStreamsDumpAsm(t *testing.T) {
	b := NewBuilder("stream")
	big := make([]int64, 10_000)
	for i := range big {
		big[i] = int64(i) * 0x9e3779b9
	}
	b.Words("big", big)
	b.Zeros("pad", 40)
	b.Label("entry")
	b.Li(isa.IntReg(1), 3)
	b.Halt()
	p := b.MustBuild()

	text := p.DumpAsm()
	if !strings.HasSuffix(text, p.Disassemble()) {
		t.Fatal("DumpAsm does not end with the Disassemble listing")
	}
	w := &failAfter{n: 1 << 30}
	if err := p.WriteAsm(w); err != nil {
		t.Fatal(err)
	}
	if w.got.String() != text {
		t.Fatal("WriteAsm differs from DumpAsm")
	}
	if w.writes < 2 {
		t.Fatalf("an %d-byte dump arrived in %d write", len(text), w.writes)
	}
	fail := &failAfter{n: 1}
	if err := p.WriteAsm(fail); err == nil || err.Error() != "disk full" {
		t.Fatalf("WriteAsm to a failing writer: %v", err)
	}
	if fail.writes != 2 {
		t.Fatalf("%d writes after the first failure", fail.writes-2)
	}
}
