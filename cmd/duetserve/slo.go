package main

import (
	"log/slog"
	"time"

	"duet"
	"duet/cmd/internal/manifest"
)

// applySLOBudgets installs the per-stage budget table on the suite's tracer:
// roofline-derived defaults for the largest resident plan, overlaid by the
// manifest's "budgets" block, where a zero budget disables its stage. A
// proxy passes a nil registry: it owns no plan, so there is no roofline to
// derive from and only the manifest's budgets (typically "forward" and
// "route") apply.
func applySLOBudgets(suite *duet.ObsSuite, reg *duet.Registry, man *manifest.Manifest) {
	if suite == nil || suite.Tracer == nil {
		return
	}
	budgets := map[string]time.Duration{}
	planBytes := 0
	if reg != nil {
		for _, mi := range reg.Info() {
			if mi.PlanBytes > planBytes {
				planBytes = mi.PlanBytes
			}
		}
		budgets = duet.DeriveSLOBudgets(planBytes, 0)
	}
	for stage, d := range man.Budgets {
		budgets[stage] = d
	}
	suite.Tracer.SetBudgets(budgets)
	slog.Info("slo budgets armed",
		"stages", len(budgets),
		"plan_bytes", planBytes,
		"plan_exec", budgets["plan_exec"],
		"batch_wait", budgets["batch_wait"],
		"forward", budgets["forward"])
}
