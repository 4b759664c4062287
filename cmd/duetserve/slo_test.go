package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"duet"
)

func TestManifestBudgetValidation(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join(dir, "m.json")
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
		if _, err := loadManifest(manPath); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("budgets %s: err %v, want substring %q", tc.budgets, err, tc.wantSub)
		}
	}
	// A valid block loads and converts.
	if err := os.WriteFile(manPath, []byte(fmt.Sprintf(base, `{"plan_exec": "2ms", "route": "0s"}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := man.Budgets; len(got) != 2 || got["plan_exec"] != 2*time.Millisecond || got["route"] != 0 {
		t.Fatalf("budgets = %v", got)
	}
}

// TestApplySLOBudgetsPrecedence arms a replica suite through the real entry
// point and checks the layering: roofline defaults for every stage, manifest
// entries over those, a "0s" entry disabling its stage.
func TestApplySLOBudgetsPrecedence(t *testing.T) {
	dir := t.TempDir()
	suite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 8})
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir, Obs: suite.Metrics})
	defer reg.Close()
	tbl := duet.SynCensus(300, 1)
	cfg := duet.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	if err := reg.Add("alpha", tbl, duet.New(tbl, cfg), duet.AddOpts{}); err != nil {
		t.Fatal(err)
	}

	man := &Manifest{Budgets: stageBudgets{"forward": 123 * time.Millisecond, "plan_exec": 77 * time.Millisecond, "route": 0}}
	applySLOBudgets(suite, reg, man)

	b := suite.Tracer.Budgets()
	if b["forward"] != 123*time.Millisecond || b["plan_exec"] != 77*time.Millisecond {
		t.Fatalf("manifest must override roofline: %v", b)
	}
	if _, ok := b["route"]; ok {
		t.Fatalf("a zero budget must disable the stage: route = %v", b["route"])
	}
	for _, stage := range []string{"cache_lookup", "admission_wait", "batch_wait"} {
		if b[stage] <= 0 {
			t.Fatalf("roofline default missing for %s: %v", stage, b)
		}
	}

	// Proxy arming: the manifest's budgets only, no roofline.
	psuite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 8})
	applySLOBudgets(psuite, nil, &Manifest{})
	if b := psuite.Tracer.Budgets(); len(b) != 0 {
		t.Fatalf("proxy with no budgets block must stay unarmed, got %v", b)
	}
	applySLOBudgets(psuite, nil, man)
	b = psuite.Tracer.Budgets()
	if len(b) != 2 || b["forward"] != 123*time.Millisecond || b["plan_exec"] != 77*time.Millisecond {
		t.Fatalf("proxy budgets = %v", b)
	}
}

// TestManifestUnknownStageNamesEvery: the error for a stage the budgets
// cannot target lists every one they can.
func TestManifestUnknownStageNamesEvery(t *testing.T) {
	manPath := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(manPath, []byte(`{"models": [{"name": "a", "syn": "census"}], "budgets": {"nope": "1ms"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadManifest(manPath)
	if err == nil {
		t.Fatal("a manifest budgeting an unknown stage loaded")
	}
	for _, stage := range []string{"admission_wait", "batch_wait", "cache_lookup", "forward", "plan_exec", "route"} {
		if !strings.Contains(err.Error(), stage) {
			t.Errorf("the error %q does not name the stage %s", err, stage)
		}
	}
}
