package core

import (
	"testing"

	"duet/internal/exec"
	"duet/internal/made"
	"duet/internal/relation"
	"duet/internal/workload"
)

// TestQuantizedPlanAccuracyAndSize: the int8 plan must shrink resident
// weight bytes by at least 3x and stay close to the f32 plan's estimates,
// per query on a toy table and in median q-error against exact
// cardinalities on census. Both are counts of a deterministic computation,
// not timings, so the bounds hold on every run and every kernel tier.
func TestQuantizedPlanAccuracyAndSize(t *testing.T) {
	tbl := tinyTable(300)
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 128
	cfg.Lambda = 0
	Train(m, cfg)

	qs := workload.Generate(tbl, workload.GenConfig{Seed: 11, NumQueries: 40, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	f32 := append([]float64(nil), m.EstimateCardBatch(qs)...)
	f32Bytes := m.WarmPlan()

	q8 := m.Compile(made.PlanConfig{Quantize: true})
	qBytes := q8.WeightBytes()
	if qBytes <= 0 || f32Bytes <= 0 {
		t.Fatalf("weight bytes f32=%d int8=%d", f32Bytes, qBytes)
	}
	if ratio := float64(f32Bytes) / float64(qBytes); ratio < 3 {
		t.Fatalf("int8 plan only %.2fx smaller (f32=%dB int8=%dB), want >= 3x", ratio, f32Bytes, qBytes)
	}
	quant := q8.EstimateCardBatch(qs)
	for i := range f32 {
		hi, lo := f32[i], quant[i]
		if hi < lo {
			hi, lo = lo, hi
		}
		// Per-span int8 perturbs each weight by at most half a quantization
		// step; estimates should track the f32 plan within a small q-error.
		if lo+1 < hi && hi/(lo+1e-9) > 1.3 {
			t.Fatalf("query %d: quantized estimate %v vs f32 %v diverges beyond 1.3x", i, quant[i], f32[i])
		}
	}
	// Batch composition independence holds for the quantized plan too.
	for _, i := range []int{0, 7, len(qs) - 1} {
		if got := q8.EstimateCardBatch(qs[i : i+1])[0]; got != quant[i] {
			t.Fatalf("query %d: singleton quantized batch %v vs batch %v", i, got, quant[i])
		}
	}
	// Compiling the int8 snapshot left the model's own f32 plan in place.
	back := m.EstimateCardBatch(qs)
	for i := range f32 {
		if back[i] != f32[i] {
			t.Fatalf("query %d: the model's estimate moved from %v to %v", i, f32[i], back[i])
		}
	}

	// The paper-protocol case: duetbench's tiny census model and its labelled
	// Rand-Q workload. Reference: 72,064 -> 22,929 bytes (3.14x), ratio 1.0002.
	t.Run("census", func(t *testing.T) {
		tbl, err := relation.Synthetic("census", 1500, 1)
		if err != nil {
			t.Fatal(err)
		}
		mc := DefaultConfig()
		mc.Hidden = []int{48, 48}
		mc.EmbedDim = 16
		m := NewModel(tbl, mc)
		Train(m, cfg)

		labeled := exec.Label(tbl, workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 40)))
		qs := make([]workload.Query, len(labeled))
		for i, lq := range labeled {
			qs[i] = lq.Query
		}
		medianQErr := func(b batchEstimator) float64 {
			errs := make([]float64, len(qs))
			for i, est := range b.EstimateCardBatch(qs) {
				errs[i] = workload.QError(est, float64(labeled[i].Card))
			}
			return workload.Summarize(errs).Median
		}
		q8 := m.Compile(made.PlanConfig{Quantize: true})
		f32Bytes, f32Med := m.WarmPlan(), medianQErr(m)
		qBytes, qMed := q8.WeightBytes(), medianQErr(q8)
		if ratio := float64(f32Bytes) / float64(qBytes); ratio < 3 {
			t.Fatalf("int8 plan only %.2fx smaller (f32=%dB int8=%dB), want >= 3x", ratio, f32Bytes, qBytes)
		}
		if ratio := qMed / f32Med; ratio > 1.05 {
			t.Fatalf("int8 median q-error %.4f is %.4fx the f32 plan's %.4f, want <= 1.05x", qMed, ratio, f32Med)
		}
		t.Logf("plan bytes %d -> %d, median q-error %.4f -> %.4f", f32Bytes, qBytes, f32Med, qMed)
	})
}
