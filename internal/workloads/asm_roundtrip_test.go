package workloads

import (
	"strings"
	"testing"

	"perfclone/internal/funcsim"
	"perfclone/internal/prog"
)

// TestAsmRoundTripExecution: every kernel, dumped to assembly text and
// re-parsed, must execute to the identical checksum — the .s form is a
// faithful interchange format for whole programs.
func TestAsmRoundTripExecution(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			orig := w.Build()
			reparsed, err := prog.Parse(strings.NewReader(orig.DumpAsm()))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			run := func(p *prog.Program) (uint64, int64) {
				m, err := funcsim.New(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.RunColumns(funcsim.Limits{MaxInsts: 50_000_000}, nil)
				if err != nil || !res.Halted {
					t.Fatalf("run: halted=%v err=%v", res.Halted, err)
				}
				v, err := ResultValue(p, m)
				if err != nil {
					t.Fatal(err)
				}
				return res.Insts, v
			}
			i1, v1 := run(orig)
			i2, v2 := run(reparsed)
			if i1 != i2 || v1 != v2 {
				t.Fatalf("round trip diverged: %d/%d insts, %d/%d checksum", i1, i2, v1, v2)
			}
		})
	}
}
