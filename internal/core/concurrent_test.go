package core

import (
	"math"
	"sync"
	"testing"

	"duet/internal/made"
	"duet/internal/workload"
)

// estimateConcurrently runs 8 goroutines on one model, each estimating all
// of qs in calls of 1, 7, 64 and 300 queries (300 crosses the 256-query
// chunk), starting at a different size, and hands every answer to check
// with its query's index. check reports whether the answer is right; the
// goroutine stops at its first wrong one.
func estimateConcurrently(m *Model, qs []workload.Query, check func(i int, got float64) bool) {
	sizes := []int{1, 7, 64, 300}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sizes {
				per := sizes[(g+k)%len(sizes)]
				for lo := 0; lo < len(qs); lo += per {
					hi := min(lo+per, len(qs))
					for j, got := range m.EstimateCardBatch(qs[lo:hi]) {
						if !check(lo+j, got) {
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func concurrencyFixture() (Config, Config, TrainConfig) {
	mlp := tinyConfig()
	mlp.MPSN = MPSNMLP
	mlp.MPSNHidden = 16
	mlp.MPSNOut = 8
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 64
	tc.Lambda = 0
	return tinyConfig(), mlp, tc
}

// TestEstimateConcurrent: estimates from 8 goroutines at once on one model
// are bitwise what a serial run gives, whichever pooled scratch ran them, for
// the direct f32 and int8 plans and the MLP-MPSN merged and un-merged. Under
// -race it is also the check that a pass writes only its own scratch.
func TestEstimateConcurrent(t *testing.T) {
	tbl := tinyTable(300)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 17, NumQueries: 300, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, MultiPredCols: 1})
	direct, mlp, tc := concurrencyFixture()
	for _, k := range []struct {
		name  string
		cfg   Config
		setup func(*Model)
	}{
		{"f32", direct, func(*Model) {}},
		{"int8", direct, func(m *Model) { m.SetPlanConfig(made.PlanConfig{Quantize: true}) }},
		{"mlp-unmerged", mlp, func(*Model) {}},
		{"mlp-merged", mlp, func(m *Model) {
			if err := m.Merge(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(k.name, func(t *testing.T) {
			m := NewModel(tbl, k.cfg)
			Train(m, tc)
			k.setup(m)
			want := m.EstimateCardBatch(qs)
			estimateConcurrently(m, qs, func(i int, got float64) bool {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("query %d: concurrent estimate %v, serial %v", i, got, want[i])
					return false
				}
				return true
			})
		})
	}
}

// TestEstimateConcurrentPlanSwitch: while 8 goroutines estimate, another
// flips the plan between f32 and int8. Each answer is bitwise the serial
// answer under one of the two: a pass runs on the snapshot it loaded, never
// on a half-switched model.
func TestEstimateConcurrentPlanSwitch(t *testing.T) {
	tbl := tinyTable(300)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 19, NumQueries: 300, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1})
	direct, _, tc := concurrencyFixture()
	m := NewModel(tbl, direct)
	Train(m, tc)
	f32 := m.EstimateCardBatch(qs)
	m.SetPlanConfig(made.PlanConfig{Quantize: true})
	i8 := m.EstimateCardBatch(qs)

	done := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for quant := false; ; quant = !quant {
			select {
			case <-done:
				return
			default:
				m.SetPlanConfig(made.PlanConfig{Quantize: quant})
			}
		}
	}()
	estimateConcurrently(m, qs, func(i int, got float64) bool {
		if b := math.Float64bits(got); b != math.Float64bits(f32[i]) && b != math.Float64bits(i8[i]) {
			t.Errorf("query %d: estimate %v is neither the f32 plan's %v nor the int8 plan's %v", i, got, f32[i], i8[i])
			return false
		}
		return true
	})
	close(done)
	flips.Wait()
}
