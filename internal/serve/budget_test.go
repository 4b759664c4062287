package serve

import (
	"slices"
	"testing"
	"time"
)

func TestDeriveBudgetsRoofline(t *testing.T) {
	// 1 GB/s bandwidth, 1 MB plan: roofline 1ms, ×8 headroom = 8ms.
	c := BudgetCalib{BytesPerSec: 1e9}
	b := DeriveBudgets(1_000_000, c)
	if b["plan_exec"] != 8*time.Millisecond {
		t.Fatalf("plan_exec = %v, want 8ms", b["plan_exec"])
	}
	// The flush window no longer exists: the worst wait is one pass in flight.
	if b["batch_wait"] != 8*time.Millisecond {
		t.Fatalf("batch_wait = %v, want plan_exec (8ms)", b["batch_wait"])
	}
	if b["forward"] != 8*time.Millisecond+8*time.Millisecond+25*time.Millisecond {
		t.Fatalf("forward = %v", b["forward"])
	}
	for _, stage := range []string{"cache_lookup", "admission_wait", "route"} {
		if b[stage] <= 0 {
			t.Fatalf("flat budget missing for %s: %v", stage, b)
		}
	}
}

func TestDeriveBudgetsFloors(t *testing.T) {
	c := BudgetCalib{BytesPerSec: 1e12}
	// A tiny plan roofs below scheduler jitter; the floor holds the budget up.
	b := DeriveBudgets(64, c)
	if b["plan_exec"] != 250*time.Microsecond {
		t.Fatalf("plan_exec = %v, want the 250us floor", b["plan_exec"])
	}
	if b["batch_wait"] != b["plan_exec"] {
		t.Fatalf("batch_wait = %v, want plan_exec %v", b["batch_wait"], b["plan_exec"])
	}
}

func TestCalibrateBudgets(t *testing.T) {
	c := CalibrateBudgets()
	if c.BytesPerSec <= 0 {
		t.Fatalf("calibrated bandwidth = %v", c.BytesPerSec)
	}
	// A zero calibration forces DeriveBudgets to self-calibrate.
	b := DeriveBudgets(1<<20, BudgetCalib{})
	if b["plan_exec"] <= 0 {
		t.Fatalf("self-calibrated plan_exec = %v", b["plan_exec"])
	}
}

// TestSLOStages: the stages budgets can target are DeriveBudgets's table,
// sorted.
func TestSLOStages(t *testing.T) {
	want := []string{"admission_wait", "batch_wait", "cache_lookup", "forward", "plan_exec", "route"}
	if got := SLOStages(); !slices.Equal(got, want) {
		t.Fatalf("SLOStages() = %v, want %v", got, want)
	}
}
