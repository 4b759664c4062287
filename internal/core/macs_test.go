package core

import (
	"testing"

	"duet/internal/relation"
	"duet/internal/tensor"
)

// TestTrainStepMACs counts the multiply-adds one data-only training step
// of each benchmark model executes in the GEMM tiles, against what the
// dense products execute on the same layers (their padded tiles: the forward
// X·W, the input gradient dY·Wᵀ and the weight gradient Xᵀ·dY of each). The
// masked layers' live regions skip dead weights' tiles and terms, and the
// first layer's input gradient, which neither model reads: a change that
// falls back to the dense products fails here without timing anything.
func TestTrainStepMACs(t *testing.T) {
	for _, c := range []struct {
		name string
		tbl  *relation.Table
		cfg  Config
		max  float64
	}{
		{"census", relation.SynCensus(20000, 1), DefaultConfig(), 0.75},
		{"dmv", relation.SynDMV(20000, 1), DMVConfig(), 0.86},
	} {
		m := NewModel(c.tbl, c.cfg)
		tc := DefaultTrainConfig()
		tc.Epochs, tc.Lambda = 1, 0
		tc.Source, tc.SourceRows = &cyclingSource{t: c.tbl}, tc.BatchSize // one step
		got := tensor.CountMACs(func() { Train(m, tc) })

		rows := tc.BatchSize * tc.Mu
		tm, tn := tensor.GEMMTile()
		pad := func(n, t int) int64 { return int64((n + t - 1) / t * t) }
		var dense int64
		for _, l := range m.net.Masked {
			dense += pad(rows, tm) * pad(l.Out, tn) * int64(l.In) // X·W
			dense += pad(rows, tm) * pad(l.In, tn) * int64(l.Out) // dY·Wᵀ
			dense += pad(l.In, tm) * pad(l.Out, tn) * int64(rows) // Xᵀ·dY
		}
		ratio := float64(got) / float64(dense)
		t.Logf("%s, tier %s: %d of %d dense MACs a step (%.3f)", c.name, tensor.KernelTier(), got, dense, ratio)
		if ratio > c.max {
			t.Errorf("%s: a step executes %.3f of the dense MACs, want at most %.2f", c.name, ratio, c.max)
		}
	}
}
