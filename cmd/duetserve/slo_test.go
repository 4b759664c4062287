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

func TestParseSLOFlag(t *testing.T) {
	if ov, off, err := parseSLOFlag(""); ov != nil || off || err != nil {
		t.Fatalf("empty flag = (%v, %v, %v), want defaults", ov, off, err)
	}
	if _, off, err := parseSLOFlag("off"); !off || err != nil {
		t.Fatalf("off flag = (%v, %v), want off", off, err)
	}
	ov, off, err := parseSLOFlag("plan_exec=2ms, forward=1s, batch_wait=0s")
	if err != nil || off {
		t.Fatalf("parse: %v off=%v", err, off)
	}
	want := map[string]time.Duration{"plan_exec": 2 * time.Millisecond, "forward": time.Second, "batch_wait": 0}
	for stage, d := range want {
		if ov[stage] != d {
			t.Fatalf("overrides[%s] = %v, want %v (all: %v)", stage, ov[stage], d, ov)
		}
	}
	for flag, wantSub := range map[string]string{
		"nope=1ms":      "unknown stage",
		"plan_exec":     "want stage=duration",
		"plan_exec=abc": "invalid duration",
		"plan_exec=-1s": "must be >= 0",
	} {
		if _, _, err := parseSLOFlag(flag); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("parseSLOFlag(%q) err = %v, want substring %q", flag, err, wantSub)
		}
	}
}

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
// entries over those, -slo overrides over everything, zero disabling a stage.
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

	man := &Manifest{Budgets: stageBudgets{"forward": 123 * time.Millisecond, "plan_exec": 77 * time.Millisecond}}
	overrides := map[string]time.Duration{"plan_exec": 9 * time.Millisecond, "route": 0}
	applySLOBudgets(suite, reg, man, overrides, false)

	b := suite.Tracer.Budgets()
	if b["forward"] != 123*time.Millisecond {
		t.Fatalf("manifest must override roofline: forward = %v", b["forward"])
	}
	if b["plan_exec"] != 9*time.Millisecond {
		t.Fatalf("-slo must override the manifest: plan_exec = %v", b["plan_exec"])
	}
	if _, ok := b["route"]; ok {
		t.Fatalf("zero override must disable the stage: route = %v", b["route"])
	}
	for _, stage := range []string{"cache_lookup", "admission_wait", "batch_wait"} {
		if b[stage] <= 0 {
			t.Fatalf("roofline default missing for %s: %v", stage, b)
		}
	}

	// -slo off wipes the table entirely.
	applySLOBudgets(suite, reg, man, nil, true)
	if b := suite.Tracer.Budgets(); len(b) != 0 {
		t.Fatalf("off must clear every budget, got %v", b)
	}

	// Proxy arming: explicit budgets only, no roofline.
	psuite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 8})
	applySLOBudgets(psuite, nil, nil, nil, false)
	if b := psuite.Tracer.Budgets(); len(b) != 0 {
		t.Fatalf("proxy with no explicit budgets must stay unarmed, got %v", b)
	}
	applySLOBudgets(psuite, nil, man, map[string]time.Duration{"forward": time.Second}, false)
	b = psuite.Tracer.Budgets()
	if b["forward"] != time.Second || b["plan_exec"] != 77*time.Millisecond {
		t.Fatalf("proxy budgets = %v", b)
	}
}
