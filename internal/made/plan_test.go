package made

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/tensor"
)

// planBatch draws a batch shaped like Duet's encoded predicates: about half
// of every row is exactly zero (one-hot slots, wildcard blocks), so the
// plan's zero-activation skip runs, and each row asks for its own ascending
// subset of output blocks, at least one.
func planBatch(m *MADE, rows int, seed int64) (*tensor.Matrix, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(rows, m.In.Tot)
	for i := range x.Data {
		if rng.Intn(2) == 0 {
			x.Data[i] = float32(rng.NormFloat64())
		}
	}
	needed := make([][]int32, rows)
	for r := range needed {
		for b := 0; b < m.Out.N(); b++ {
			if rng.Intn(2) == 0 {
				needed[r] = append(needed[r], int32(b))
			}
		}
		if len(needed[r]) == 0 {
			needed[r] = []int32{int32(rng.Intn(m.Out.N()))}
		}
	}
	return x, needed
}

// planNets are the two trunk shapes NewPlan compiles: plain MADE and ResMADE
// (whose residual branches must come back in the layout they were given).
func planNets() map[string]*MADE {
	return map[string]*MADE{
		"made":    New(smallConfig(false)),
		"resmade": New(smallConfig(true)),
	}
}

// maxBlockErr returns the largest |got-want| / (1+|want|) over the blocks
// each row needs; blocks a row did not ask for hold unspecified values.
func maxBlockErr(m *MADE, got, want *tensor.Matrix, needed [][]int32) float64 {
	worst := 0.0
	for r, blocks := range needed {
		for _, b := range blocks {
			g, w := m.Out.Slice(got.Row(r), int(b)), m.Out.Slice(want.Row(r), int(b))
			for k := range w {
				if e := math.Abs(float64(g[k]-w[k])) / (1 + math.Abs(float64(w[k]))); e > worst {
					worst = e
				}
			}
		}
	}
	return worst
}

// TestPlanMatchesForward: the f32 plan re-orders a logit's additions (degree
// sort) and skips structural zeros, nothing else, so every needed block
// agrees with the layer stack to summation-order precision; the int8 plan
// additionally rounds each weight by at most half a quantization step of its
// span (1/254 of the span's largest weight).
func TestPlanMatchesForward(t *testing.T) {
	for name, m := range planNets() {
		x, needed := planBatch(m, 33, 5)
		ref := m.Forward(x)
		if e := maxBlockErr(m, NewPlan(m, PlanConfig{}).Forward(x, needed), ref, needed); e > 1e-5 {
			t.Errorf("%s: f32 plan is %.3g off the layer stack, want <= 1e-5", name, e)
		}
		q := NewPlan(m, PlanConfig{Quantize: true})
		if !q.Quantized() {
			t.Fatalf("%s: quantized plan reports f32", name)
		}
		e := maxBlockErr(m, q.Forward(x, needed), ref, needed)
		if e > 0.02 {
			t.Errorf("%s: int8 plan is %.3g off the layer stack, want <= 0.02", name, e)
		}
		if e == 0 {
			t.Errorf("%s: int8 plan is bitwise the layer stack; it did not quantize", name)
		}
	}
}

// TestPlanRowsIndependentOfBatch: a row's needed blocks are bitwise the same
// whether it runs alone or anywhere inside a batch, for both weight formats.
// This is what lets the serve engine batch opportunistically.
func TestPlanRowsIndependentOfBatch(t *testing.T) {
	for name, m := range planNets() {
		for _, quant := range []bool{false, true} {
			p := NewPlan(m, PlanConfig{Quantize: quant})
			x, needed := planBatch(m, 33, 9)
			full := p.Forward(x, needed).Clone()

			// Each row alone.
			for r := range needed {
				one := &tensor.Matrix{Rows: 1, Cols: x.Cols, Data: x.Row(r)}
				got := p.Forward(one, needed[r:r+1])
				for _, b := range needed[r] {
					g, w := m.Out.Slice(got.Row(0), int(b)), m.Out.Slice(full.Row(r), int(b))
					for k := range w {
						if g[k] != w[k] {
							t.Fatalf("%s quant=%v: row %d block %d differs alone (%v) and in the batch (%v)", name, quant, r, b, g[k], w[k])
						}
					}
				}
			}

			// The batch reversed, in a different batch size's buffers.
			n := x.Rows - 1
			rev := tensor.New(n, x.Cols)
			revNeeded := make([][]int32, n)
			for r := 0; r < n; r++ {
				copy(rev.Row(r), x.Row(n-r))
				revNeeded[r] = needed[n-r]
			}
			got := p.Forward(rev, revNeeded)
			for r := 0; r < n; r++ {
				for _, b := range revNeeded[r] {
					g, w := m.Out.Slice(got.Row(r), int(b)), m.Out.Slice(full.Row(n-r), int(b))
					for k := range w {
						if g[k] != w[k] {
							t.Fatalf("%s quant=%v: row %d block %d differs when the batch is reversed", name, quant, n-r, b)
						}
					}
				}
			}
		}
	}
}
