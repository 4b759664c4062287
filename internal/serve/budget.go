package serve

import (
	"maps"
	"slices"
	"time"

	"duet/internal/tensor"
)

// This file derives default per-stage SLO budgets from a roofline model of
// the packed inference plan. The plan's forward pass streams its resident
// weight panels once per pass (tensor.AxpyPanel, the destination held in
// registers) — memory-bound on every realistic host — so its expected
// latency is weight traffic divided by a sustained streaming bandwidth,
// which a short saxpy calibration run measures on the actual dispatch tier
// in use. Saxpy also moves its destination, so the figure is conservative. The budgets that come out are *priors*, not
// arbitrary thresholds: a plan_exec violation means the kernel ran slower
// than the hardware says it should, not that an operator guessed a number.

// BudgetCalib holds the measured hardware figure the roofline uses.
type BudgetCalib struct {
	// BytesPerSec is the sustained streaming bandwidth of the active saxpy
	// kernel tier (reads of x and read+write of y counted).
	BytesPerSec float64
}

// calibSize is the calibration vector length: 256Ki float32 (1 MiB per
// vector) — large enough to stream past L1/L2 effects, small enough that the
// whole calibration stays in the low milliseconds.
const calibSize = 256 * 1024

// CalibrateBudgets times a short saxpy sweep through the active kernel tier
// and returns the sustained bandwidth. Best-of-three so a scheduler blip
// cannot understate the hardware (an understated calibration would inflate
// every derived budget).
func CalibrateBudgets() BudgetCalib {
	x := make([]float32, calibSize)
	y := make([]float32, calibSize)
	for i := range x {
		x[i] = float32(i%7) * 0.25
	}
	const iters = 8
	// 12 bytes move per element per call: x read, y read, y written.
	bytesMoved := float64(calibSize) * 12 * iters
	best := 0.0
	for run := 0; run < 3; run++ {
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			tensor.Saxpy(1.0009765625, x, y)
		}
		if d := time.Since(t0); d > 0 {
			if bw := bytesMoved / d.Seconds(); bw > best {
				best = bw
			}
		}
	}
	if best <= 0 {
		best = 1e9 // pathological clock; assume a modest 1 GB/s
	}
	return BudgetCalib{BytesPerSec: best}
}

// budgetHeadroom multiplies the roofline estimate into a budget: the
// expected latency is a lower bound, and a violation should mean "the stage
// ran far off the hardware model", not "the scheduler preempted us once".
const budgetHeadroom = 8

// SLOStages lists, sorted, the stages per-stage SLO budgets can target:
// those DeriveBudgets's table has a default for.
func SLOStages() []string {
	return slices.Sorted(maps.Keys(DeriveBudgets(0, BudgetCalib{BytesPerSec: 1})))
}

// DeriveBudgets returns the default per-stage SLO budget table for an engine
// whose packed plan keeps planBytes of weights resident. Stages:
//
//   - plan_exec: headroom × (planBytes / calibrated bandwidth), floored at
//     250µs so tiny demo plans don't produce budgets below scheduler jitter.
//   - batch_wait: one plan_exec — the worst legitimate wait is arriving
//     just after a pass started and riding the next one.
//   - cache_lookup: flat 1ms; it is a mutex-guarded map probe.
//   - admission_wait: flat 50ms; the token bucket legitimately delays
//     requests under configured rate limits, so only a stall is a violation.
//   - route: flat 1ms; registry resolution is a read-locked map lookup.
//   - forward: plan_exec + batch_wait + a 25ms intra-fleet network
//     allowance, covering the proxy's whole downstream hop.
func DeriveBudgets(planBytes int, c BudgetCalib) map[string]time.Duration {
	if c.BytesPerSec <= 0 {
		c = CalibrateBudgets()
	}
	planExec := time.Duration(float64(planBytes) / c.BytesPerSec * budgetHeadroom * float64(time.Second))
	if planExec < 250*time.Microsecond {
		planExec = 250 * time.Microsecond
	}
	return map[string]time.Duration{
		"plan_exec":      planExec,
		"batch_wait":     planExec,
		"cache_lookup":   time.Millisecond,
		"admission_wait": 50 * time.Millisecond,
		"route":          time.Millisecond,
		"forward":        2*planExec + 25*time.Millisecond,
	}
}
