package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"duet/internal/exec"
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
// the MLP-MPSN. Under -race it is also the check that a pass writes only its
// own scratch.
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

// TestEstimateConcurrentWithTraining: f32 and int8 snapshots compiled from a
// direct and an MLP-MPSN model answer bitwise as they did when compiled
// while Train and then FineTune run on their models, and 8 goroutines
// estimate on every snapshot until both models are done. A snapshot shares
// no mutable state with its model; under -race this is also the check that
// training writes nothing a snapshot reads.
func TestEstimateConcurrentWithTraining(t *testing.T) {
	tbl := tinyTable(300)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 19, NumQueries: 300, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, MultiPredCols: 1})
	labeled := exec.Label(tbl, qs[:64])
	direct, mlp, tc := concurrencyFixture()
	var (
		models []*Model
		snaps  []*Snapshot
		wants  [][]float64
	)
	for _, cfg := range []Config{direct, mlp} {
		m := NewModel(tbl, cfg)
		Train(m, tc)
		models = append(models, m)
		for _, quant := range []bool{false, true} {
			s := m.Compile(made.PlanConfig{Quantize: quant})
			snaps = append(snaps, s)
			wants = append(wants, s.EstimateCardBatch(qs))
		}
	}

	var training sync.WaitGroup
	var trained, failed atomic.Bool
	for _, m := range models {
		training.Add(1)
		go func() {
			defer training.Done()
			more := tc
			more.Epochs = 2
			Train(m, more)
			ft := DefaultFineTuneConfig()
			ft.Steps = 20
			FineTune(m, labeled, ft)
		}()
	}
	go func() {
		training.Wait()
		trained.Store(true)
	}()
	var estimates sync.WaitGroup
	for k, s := range snaps {
		estimates.Add(1)
		go func() {
			defer estimates.Done()
			for done := false; !done && !failed.Load(); {
				done = trained.Load()
				estimateConcurrently(s, qs, func(i int, got float64) bool {
					if math.Float64bits(got) != math.Float64bits(wants[k][i]) {
						t.Errorf("snapshot %d, query %d: estimate %v during training, %v at compile", k, i, got, wants[k][i])
						failed.Store(true)
					}
					return !failed.Load()
				})
			}
		}()
	}
	estimates.Wait()
	training.Wait()
}
