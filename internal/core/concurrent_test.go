package core

import (
	"math"
	"sync"
	"testing"

	"duet/internal/made"
	"duet/internal/workload"
)

// batchEstimator is what estimates in these tests: a Model or a Snapshot.
type batchEstimator interface {
	EstimateCardBatch(qs []workload.Query) []float64
}

// estimateConcurrently runs 8 goroutines on one estimator, each estimating all
// of qs in calls of 1, 7, 64 and 300 queries (300 crosses the 256-query
// chunk), starting at a different size, and hands every answer to check
// with its query's index. check reports whether the answer is right; the
// goroutine stops at its first wrong one.
func estimateConcurrently(m batchEstimator, qs []workload.Query, check func(i int, got float64) bool) {
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

// TestEstimateConcurrent: estimates from 8 goroutines at once on one model,
// or on one int8 snapshot of it, are bitwise what a serial run gives,
// whichever pooled scratch ran them, for the direct f32 and int8 plans and
// the MLP-MPSN merged and un-merged. Under -race it is also the check that a
// pass writes only its own scratch.
func TestEstimateConcurrent(t *testing.T) {
	tbl := tinyTable(300)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 17, NumQueries: 300, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, MultiPredCols: 1})
	direct, mlp, tc := concurrencyFixture()
	for _, k := range []struct {
		name  string
		cfg   Config
		setup func(*Model) batchEstimator
	}{
		{"f32", direct, func(m *Model) batchEstimator { return m }},
		{"int8", direct, func(m *Model) batchEstimator { return m.Compile(made.PlanConfig{Quantize: true}) }},
		{"mlp-unmerged", mlp, func(m *Model) batchEstimator { return m }},
		{"mlp-merged", mlp, func(m *Model) batchEstimator {
			if err := m.Merge(); err != nil {
				t.Fatal(err)
			}
			return m
		}},
	} {
		t.Run(k.name, func(t *testing.T) {
			m := NewModel(tbl, k.cfg)
			Train(m, tc)
			est := k.setup(m)
			want := est.EstimateCardBatch(qs)
			estimateConcurrently(est, qs, func(i int, got float64) bool {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("query %d: concurrent estimate %v, serial %v", i, got, want[i])
					return false
				}
				return true
			})
		})
	}
}

// TestEstimateConcurrentPlanSwitch: while 8 goroutines estimate on an MLP-MPSN
// model, another flips it between merged and un-merged. Each answer is
// bitwise the serial answer under one of the two: a pass runs on the snapshot
// it loaded, never on a half-switched model. Meanwhile 8 goroutines each
// estimate on an f32 and an int8 snapshot compiled from the same model, which
// share its per-column MPSNs, and get exactly their serial answers.
func TestEstimateConcurrentPlanSwitch(t *testing.T) {
	tbl := tinyTable(300)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 19, NumQueries: 300, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, MultiPredCols: 1})
	_, mlp, tc := concurrencyFixture()
	m := NewModel(tbl, mlp)
	Train(m, tc)
	unmerged := m.EstimateCardBatch(qs)
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	merged := m.EstimateCardBatch(qs)
	m.Unmerge()
	snaps := []*Snapshot{m.Compile(made.PlanConfig{}), m.Compile(made.PlanConfig{Quantize: true})}
	wants := [][]float64{snaps[0].EstimateCardBatch(qs), snaps[1].EstimateCardBatch(qs)}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for merge := true; ; merge = !merge {
			select {
			case <-done:
				return
			default:
			}
			if !merge {
				m.Unmerge()
			} else if err := m.Merge(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var estimates sync.WaitGroup
	for k, s := range snaps {
		estimates.Add(1)
		go func() {
			defer estimates.Done()
			estimateConcurrently(s, qs, func(i int, got float64) bool {
				if math.Float64bits(got) != math.Float64bits(wants[k][i]) {
					t.Errorf("snapshot %d, query %d: concurrent estimate %v, serial %v", k, i, got, wants[k][i])
					return false
				}
				return true
			})
		}()
	}
	estimateConcurrently(m, qs, func(i int, got float64) bool {
		if b := math.Float64bits(got); b != math.Float64bits(unmerged[i]) && b != math.Float64bits(merged[i]) {
			t.Errorf("query %d: estimate %v is neither the un-merged %v nor the merged %v", i, got, unmerged[i], merged[i])
			return false
		}
		return true
	})
	estimates.Wait()
	close(done)
	wg.Wait()
}
