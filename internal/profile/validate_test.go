package profile

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"perfclone/internal/workloads"
)

// collectSmall profiles a workload with a small budget.
func collectSmall(t *testing.T, name string, insts uint64) *Profile {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CollectContext(context.Background(), w.Build(), Options{MaxInsts: insts})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCollectedProfilesValidate pins the contract that every profile
// Collect produces passes Validate — including profiles truncated at odd
// instruction budgets, where the final recorded SFG edge can point at a
// block that never executed (finalize prunes it).
func TestCollectedProfilesValidate(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, budget := range []uint64{50_000, 777} {
				p, err := CollectContext(context.Background(), w.Build(), Options{MaxInsts: budget})
				if err != nil {
					t.Fatalf("collect @%d: %v", budget, err)
				}
				if err := p.Validate(); err != nil {
					t.Errorf("budget %d: %v", budget, err)
				}
			}
		})
	}
}

// mutateJSON round-trips a profile through bare JSON (the legacy,
// CRC-less load path), applies fn to the decoded document, and returns
// the re-encoded bytes — a syntactically valid but semantically corrupt
// profile file.
func mutateJSON(t *testing.T, p *Profile, fn func(doc map[string]any)) []byte {
	t.Helper()
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	fn(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadRejectsCorruptValues: syntactically valid JSON whose values
// violate profile invariants must fail to load — the CRC envelope only
// catches bit flips, not a hand-edited or adversarial file.
func TestLoadRejectsCorruptValues(t *testing.T) {
	base := collectSmall(t, "crc32", 50_000)
	cases := []struct {
		name string
		mut  func(doc map[string]any)
		want string
	}{
		{
			"negative mean stream length",
			func(doc map[string]any) {
				mem := doc["mem"].([]any)
				mem[0].(map[string]any)["meanStreamLen"] = -3.5
			},
			"mean stream length",
		},
		{
			"inverted address interval",
			func(doc map[string]any) {
				m := doc["mem"].([]any)[0].(map[string]any)
				m["minAddr"] = 100
				m["maxAddr"] = 50
				m["firstAddr"] = 100
			},
			"inverted interval",
		},
		{
			"dominant count exceeds access count",
			func(doc map[string]any) {
				m := doc["mem"].([]any)[0].(map[string]any)
				m["dominantCount"] = 1e12
			},
			"dominant-stride count",
		},
		{
			"dangling SFG successor",
			func(doc map[string]any) {
				n := doc["nodes"].([]any)[0].(map[string]any)
				n["succ"] = map[string]any{"9999": 4}
			},
			"dangling successor",
		},
		{
			"branch transitions exceed executions",
			func(doc map[string]any) {
				b := doc["branches"].([]any)[0].(map[string]any)
				b["count"] = 10
				b["taken"] = 5
				b["transitions"] = 50
			},
			"transitions",
		},
		{
			"negative node size",
			func(doc map[string]any) {
				doc["nodes"].([]any)[0].(map[string]any)["size"] = -1
			},
			"size",
		},
		{
			"negative block id",
			func(doc map[string]any) {
				n := doc["nodes"].([]any)[0].(map[string]any)
				key := n["key"].(map[string]any)
				key["block"] = -7
			},
			"invalid key",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := mutateJSON(t, base, tc.mut)
			_, err := Load(bytes.NewReader(raw))
			if err == nil {
				t.Fatal("corrupt profile loaded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The unmutated round trip must still load.
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatalf("pristine profile rejected: %v", err)
	}
}

// TestLoadRejectsNonFiniteNumbers: JSON cannot encode NaN/Inf literals,
// so an attacker smuggles non-finite values as out-of-range numbers; the
// decoder must reject them rather than saturating silently.
func TestLoadRejectsNonFiniteNumbers(t *testing.T) {
	base := collectSmall(t, "crc32", 50_000)
	body, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	raw := bytes.Replace(body, []byte(`"meanStreamLen":`), []byte(`"meanStreamLen":1e999,"x":`), 1)
	if !bytes.Contains(raw, []byte("1e999")) {
		t.Fatal("test setup: no meanStreamLen field found")
	}
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Error("profile with out-of-range (infinite) number loaded without error")
	}
}

// TestValidateRejectsNonFinite covers the direct-construction path (e.g.
// a future binary loader): NaN and Inf fields fail Validate.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := collectSmall(t, "crc32", 50_000)
		if len(p.MemList) == 0 {
			t.Fatal("crc32 profile has no memory ops")
		}
		p.MemList[0].MeanStreamLen = bad
		if err := p.Validate(); err == nil {
			t.Errorf("MeanStreamLen=%v passed Validate", bad)
		}
	}
}
