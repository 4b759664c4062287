package main

import (
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

// manifestBudgets converts the manifest's validated budgets block to
// durations.
func manifestBudgets(man *Manifest) map[string]time.Duration {
	if man == nil || len(man.Budgets) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(man.Budgets))
	for stage, val := range man.Budgets {
		d, err := time.ParseDuration(val)
		if err != nil {
			continue // loadManifest already rejected unparseable entries
		}
		out[stage] = d
	}
	return out
}

// applySLOBudgets installs a replica's per-stage budget table on the suite's
// tracer: roofline-derived defaults for the largest resident plan, overlaid
// by the manifest's "budgets" block, overlaid by -slo. Stages overridden to
// zero are disabled.
func applySLOBudgets(suite *duet.ObsSuite, reg *duet.Registry, man *Manifest, overrides map[string]time.Duration, off bool) {
	if suite == nil || suite.Tracer == nil {
		return
	}
	if off {
		suite.Tracer.SetBudgets(nil)
		return
	}
	planBytes := 0
	for _, mi := range reg.Info() {
		if mi.PlanBytes > planBytes {
			planBytes = mi.PlanBytes
		}
	}
	budgets := duet.DeriveSLOBudgets(planBytes, 0)
	for stage, d := range manifestBudgets(man) {
		budgets[stage] = d
	}
	for stage, d := range overrides {
		budgets[stage] = d
	}
	suite.Tracer.SetBudgets(budgets)
	slog.Info("slo budgets armed",
		"plan_bytes", planBytes,
		"plan_exec", budgets["plan_exec"],
		"batch_wait", budgets["batch_wait"],
		"forward", budgets["forward"])
}

// applyProxySLOBudgets installs the proxy's budget table. A proxy owns no
// plan, so there is no roofline to derive from: only the manifest block and
// -slo apply (typically "forward" and "route").
func applyProxySLOBudgets(suite *duet.ObsSuite, man *Manifest, overrides map[string]time.Duration, off bool) {
	if suite == nil || suite.Tracer == nil || off {
		return
	}
	budgets := map[string]time.Duration{}
	for stage, d := range manifestBudgets(man) {
		budgets[stage] = d
	}
	for stage, d := range overrides {
		budgets[stage] = d
	}
	if len(budgets) == 0 {
		return
	}
	suite.Tracer.SetBudgets(budgets)
	slog.Info("slo budgets armed", "role", "proxy", "stages", len(budgets))
}
