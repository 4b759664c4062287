package manifest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// graphBase wraps one join entry in a manifest over three census tables.
const graphBase = `{"models": [{"name": "a", "syn": "census"}, {"name": "b", "syn": "census"}, {"name": "c", "syn": "census"}], "joins": [%s]}`

// graphCases are join entries the loader refuses, with the error each gets.
var graphCases = []struct {
	join, wantSub string
}{
	{`{"name": "j", "tables": ["a", "b"], "edges": [{"left": "a", "left_col": "x", "right": "b", "right_col": "y"}], "left": "a"}`, "mixes"},
	{`{"name": "j", "tables": ["a", "b", "c"], "edges": [{"left": "a", "left_col": "x", "right": "b", "right_col": "y"}]}`, "needs 2 edges (a spanning tree)"},
	{`{"name": "j", "tables": ["a", "b", "c"], "edges": [{"left": "a", "left_col": "x", "right": "b", "right_col": "y"}, {"left": "b", "left_col": "x", "right": "a", "right_col": "y"}]}`, "not connected"},
	{`{"name": "j", "tables": ["a", "b"], "edges": [{"left": "a", "left_col": "x", "right": "c", "right_col": "y"}]}`, "outside the graph"},
	{`{"name": "j", "tables": ["a", "nope"], "edges": [{"left": "a", "left_col": "x", "right": "nope", "right_col": "y"}]}`, "unknown table"},
	{`{"name": "j", "tables": ["a"], "edges": []}`, "at least 2 tables"},
	{`{"name": "j", "left": "a", "left_col": "x", "right": "b", "right_col": "y", "sample": 100}`, "cannot be sampled"},
	{`{"name": "j", "tables": ["a", "b"], "edges": [{"left": "a", "left_col": "x", "right": "b", "right_col": "y"}], "sample": -5}`, "sample budget"},
}

func TestManifestGraphValidation(t *testing.T) {
	manPath := filepath.Join(t.TempDir(), "m.json")
	for _, tc := range graphCases {
		if err := os.WriteFile(manPath, []byte(fmt.Sprintf(graphBase, tc.join)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(manPath)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("join %s: err %v, want substring %q", tc.join, err, tc.wantSub)
		}
	}
}

func TestManifestBudgetValidation(t *testing.T) {
	manPath := filepath.Join(t.TempDir(), "m.json")
	base := `{"models": [{"name": "a", "syn": "census"}], "budgets": %s}`
	for _, tc := range []struct {
		budgets, wantSub string
	}{
		{`{"nope": "1ms"}`, "unknown stage"},
		{`{"plan_exec": "abc"}`, "invalid duration"},
		{`{"plan_exec": "-1s"}`, "must be >= 0"},
	} {
		if err := os.WriteFile(manPath, []byte(fmt.Sprintf(base, tc.budgets)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(manPath); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("budgets %s: err %v, want substring %q", tc.budgets, err, tc.wantSub)
		}
	}
	// A valid block loads and converts.
	if err := os.WriteFile(manPath, []byte(fmt.Sprintf(base, `{"plan_exec": "2ms", "route": "0s"}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := man.Budgets; len(got) != 2 || got["plan_exec"] != 2*time.Millisecond || got["route"] != 0 {
		t.Fatalf("budgets = %v", got)
	}
}

// TestManifestUnknownStageNamesEvery: the error for a stage the budgets
// cannot target lists every one they can.
func TestManifestUnknownStageNamesEvery(t *testing.T) {
	manPath := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(manPath, []byte(`{"models": [{"name": "a", "syn": "census"}], "budgets": {"nope": "1ms"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(manPath)
	if err == nil {
		t.Fatal("a manifest budgeting an unknown stage loaded")
	}
	for _, stage := range []string{"admission_wait", "batch_wait", "cache_lookup", "forward", "plan_exec", "route"} {
		if !strings.Contains(err.Error(), stage) {
			t.Errorf("the error %q does not name the stage %s", err, stage)
		}
	}
}

// FuzzManifest: any bytes decode to a manifest or an error, never a panic.
// The seeds are every committed manifest and every refused join entry of
// TestManifestGraphValidation.
func FuzzManifest(f *testing.F) {
	var paths []string
	for _, glob := range []string{"../../../examples/*/*.json", "../../duetserve/testdata/*.json"} {
		found, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, found...)
	}
	if len(paths) < 4 {
		f.Fatalf("found %d committed manifests, want the examples' and duetserve's testdata", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range graphCases {
		f.Add([]byte(fmt.Sprintf(graphBase, tc.join)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parse("fuzz.json", data)
		if (m == nil) == (err == nil) {
			t.Fatalf("parse returned manifest %v and error %v; want exactly one", m, err)
		}
	})
}
