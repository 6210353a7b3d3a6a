package codegen

import (
	"context"
	"strings"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

func cloneOf(t *testing.T, name string) *synth.Clone {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	c, err := synth.GenerateContext(context.Background(), prof, synth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEmitCCloneStructure(t *testing.T) {
	c := cloneOf(t, "crc32")
	src, err := EmitC(c.Program, Options{FuncName: "crc32_clone"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#include <stdlib.h>",
		"void crc32_clone(void)",
		"asm volatile(",    // the paper's asm construct
		"register int64_t", // pinned register variables
		"register double",
		"malloc(",   // step 12: malloc for the data streams
		"int main(", // wrapped in a main header
		"goto B",    // branch realization
		"goto END;", // halt
		"B0:",       // block labels
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted C missing %q", want)
		}
	}
	// Every generated block has a label.
	for i := range c.Program.Blocks {
		if !strings.Contains(src, "B"+itoa(i)+":") {
			t.Errorf("missing label for block %d", i)
			break
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestEmitCNoOriginalData(t *testing.T) {
	// The clone's segments are zeroed stream pools, so the C file must
	// not embed data arrays — the code-abstraction property.
	c := cloneOf(t, "sha")
	src, err := EmitC(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(src, "static const unsigned char seg_") {
		t.Fatal("clone C source embeds data segments; should be all-zero pools")
	}
}

func TestEmitCIncludesDataForRealPrograms(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	src, err := EmitC(w.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "seg_data") || !strings.Contains(src, "memcpy(") {
		t.Fatal("real program segments not emitted")
	}
}

func TestEmitCDeterministic(t *testing.T) {
	c := cloneOf(t, "fft")
	a, err := EmitC(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmitC(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("emission not deterministic")
	}
}

func TestEmitCRejectsInvalidProgram(t *testing.T) {
	if _, err := EmitC(&prog.Program{Name: "bad"}, Options{}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestDialects(t *testing.T) {
	c := cloneOf(t, "gsm") // integer multiply-heavy: dialect differences show
	generic, err := EmitC(c.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	riscv, err := EmitC(c.Program, Options{Dialect: DialectRISC})
	if err != nil {
		t.Fatal(err)
	}
	arm, err := EmitC(c.Program, Options{Dialect: DialectARM})
	if err != nil {
		t.Fatal(err)
	}
	if generic == riscv || generic == arm || riscv == arm {
		t.Fatal("dialects produced identical output")
	}
	if !strings.Contains(riscv, `"srl `) {
		t.Error("riscv dialect missing srl")
	}
	if !strings.Contains(arm, `"lsr `) {
		t.Error("arm dialect missing lsr")
	}
	if _, err := EmitC(c.Program, Options{Dialect: "vax"}); err == nil {
		t.Error("unknown dialect accepted")
	}
}

func TestCName(t *testing.T) {
	if got := string(appendCName(nil, "pool0")); got != "pool0" {
		t.Fatal(got)
	}
	if got := string(appendCName(nil, "a-b.c d")); got != "a_b_c_d" {
		t.Fatal(got)
	}
}
