package main

import (
	"testing"
	"time"

	"duet"
	"duet/cmd/internal/manifest"
)

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

	man := &manifest.Manifest{Budgets: manifest.StageBudgets{"forward": 123 * time.Millisecond, "plan_exec": 77 * time.Millisecond, "route": 0}}
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
	applySLOBudgets(psuite, nil, &manifest.Manifest{})
	if b := psuite.Tracer.Budgets(); len(b) != 0 {
		t.Fatalf("proxy with no budgets block must stay unarmed, got %v", b)
	}
	applySLOBudgets(psuite, nil, man)
	b = psuite.Tracer.Budgets()
	if len(b) != 2 || b["forward"] != 123*time.Millisecond || b["plan_exec"] != 77*time.Millisecond {
		t.Fatalf("proxy budgets = %v", b)
	}
}
