package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"time"

	"duet"
	"duet/internal/serve"
)

// stageBudgets is the manifest's "budgets" block: stage name (one of
// serve.SLOStages) to Go duration string, validated and parsed once, as the
// manifest decodes.
type stageBudgets map[string]time.Duration

func (b *stageBudgets) UnmarshalJSON(data []byte) error {
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = make(stageBudgets, len(raw))
	for stage, val := range raw {
		if stages := serve.SLOStages(); !slices.Contains(stages, stage) {
			return fmt.Errorf("budgets: unknown stage %q (stages: %s)", stage, strings.Join(stages, ", "))
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("budgets.%s: %w", stage, err)
		}
		if d < 0 {
			return fmt.Errorf("budgets.%s must be >= 0 (0 disables the stage), got %s", stage, val)
		}
		(*b)[stage] = d
	}
	return nil
}

// applySLOBudgets installs the per-stage budget table on the suite's tracer:
// roofline-derived defaults for the largest resident plan, overlaid by the
// manifest's "budgets" block, where a zero budget disables its stage. A
// proxy passes a nil registry: it owns no plan, so there is no roofline to
// derive from and only the manifest's budgets (typically "forward" and
// "route") apply.
func applySLOBudgets(suite *duet.ObsSuite, reg *duet.Registry, man *Manifest) {
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
