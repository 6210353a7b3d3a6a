package profile

import (
	"context"
	"strings"
	"testing"
)

func TestWriteDot(t *testing.T) {
	p := stridedProgram(t, 50, 8)
	prof, err := CollectContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := prof.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "digraph") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("not a DOT document")
	}
	for _, n := range prof.NodeList {
		if !strings.Contains(out, "B"+itoa(n.Key.Block)) {
			t.Errorf("node for block %d missing", n.Key.Block)
		}
	}
	if !strings.Contains(out, "->") {
		t.Error("no edges emitted")
	}
	if !strings.Contains(out, "label=\"0.98\"") && !strings.Contains(out, "label=\"1.00\"") {
		t.Error("no transition probabilities emitted")
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
