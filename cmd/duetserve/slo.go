package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"time"

	"duet"
)

// sloStages is the closed set of span names per-stage SLO budgets can
// target: the engine stages, the registry's routing stage, and the proxy's
// downstream hop.
var sloStages = map[string]bool{
	"admission_wait": true,
	"cache_lookup":   true,
	"batch_wait":     true,
	"plan_exec":      true,
	"route":          true,
	"forward":        true,
}

func sloStageList() string {
	names := make([]string, 0, len(sloStages))
	for s := range sloStages {
		names = append(names, s)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// parseSLOFlag parses -slo: "" keeps the derived defaults, "off" disables
// every budget check, and "stage=duration,..." overrides individual stages
// ("plan_exec=2ms,forward=50ms"; a zero duration disables that stage).
func parseSLOFlag(s string) (overrides map[string]time.Duration, off bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, false, nil
	}
	if s == "off" {
		return nil, true, nil
	}
	overrides = make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		stage, val, ok := strings.Cut(part, "=")
		stage = strings.TrimSpace(stage)
		if !ok {
			return nil, false, fmt.Errorf("-slo %q: want stage=duration", part)
		}
		if !sloStages[stage] {
			return nil, false, fmt.Errorf("-slo: unknown stage %q (stages: %s)", stage, sloStageList())
		}
		d, err := time.ParseDuration(strings.TrimSpace(val))
		if err != nil {
			return nil, false, fmt.Errorf("-slo %q: %w", part, err)
		}
		if d < 0 {
			return nil, false, fmt.Errorf("-slo %q: budget must be >= 0 (0 disables the stage)", part)
		}
		overrides[stage] = d
	}
	return overrides, false, nil
}

// stageBudgets is the manifest's "budgets" block: stage name to Go duration
// string, validated and parsed once, as the manifest decodes.
type stageBudgets map[string]time.Duration

func (b *stageBudgets) UnmarshalJSON(data []byte) error {
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = make(stageBudgets, len(raw))
	for stage, val := range raw {
		if !sloStages[stage] {
			return fmt.Errorf("budgets: unknown stage %q (stages: %s)", stage, sloStageList())
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
// manifest's "budgets" block, overlaid by -slo. Stages overridden to zero
// are disabled. A proxy passes a nil registry: it owns no plan, so there is
// no roofline to derive from and only the explicit budgets (typically
// "forward" and "route") apply.
func applySLOBudgets(suite *duet.ObsSuite, reg *duet.Registry, man *Manifest, overrides map[string]time.Duration, off bool) {
	if suite == nil || suite.Tracer == nil {
		return
	}
	if off {
		suite.Tracer.SetBudgets(nil)
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
	if man != nil {
		for stage, d := range man.Budgets {
			budgets[stage] = d
		}
	}
	for stage, d := range overrides {
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
