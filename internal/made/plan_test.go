package made

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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

// rowBlockNets are wider than planNets, so spans and output blocks run the
// kernels' vector loops as well as their tails, with nonzero biases.
func rowBlockNets() map[string]*MADE {
	nets := map[string]*MADE{
		"made":    New(Config{InBlocks: []int{3, 2, 4, 6}, OutBlocks: []int{5, 3, 37, 19}, Hidden: []int{40, 24, 40}, Seed: 3}),
		"resmade": New(Config{InBlocks: []int{3, 2, 4, 6}, OutBlocks: []int{5, 3, 37, 19}, Hidden: []int{32, 32}, Residual: true, Seed: 4}),
	}
	rng := rand.New(rand.NewSource(5))
	for _, m := range nets {
		for _, p := range m.Params() {
			if p.W.Rows == 1 { // a bias
				for i := range p.W.Data {
					p.W.Data[i] = float32(rng.NormFloat64())
				}
			}
		}
	}
	return nets
}

// rowBlockBatch draws rows of four kinds: rows that need only block 0 (cut
// 0, bias alone), rows that need every block, rows whose input is mostly
// zero, and rows like planBatch's.
func rowBlockBatch(m *MADE, rows int, seed int64) (*tensor.Matrix, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(rows, m.In.Tot)
	needed := make([][]int32, rows)
	for r := range needed {
		kind := rng.Intn(4)
		zero := 0.5
		if kind == 2 {
			zero = 0.9
		}
		for i := range x.Row(r) {
			if rng.Float64() >= zero {
				x.Row(r)[i] = float32(rng.NormFloat64())
			}
		}
		for b := 0; b < m.Out.N(); b++ {
			switch {
			case kind == 0 && b > 0:
			case kind == 1 || b == 0 || rng.Intn(2) == 0:
				needed[r] = append(needed[r], int32(b))
			}
		}
	}
	return x, needed
}

// refForward is the plan's contract computed one row at a time, serially,
// with scalar float32 arithmetic on the plan's own packed weights: every
// element starts at +0, adds its terms in ascending input order, skipping
// zero activations, then adds its bias.
func refForward(p *Plan, x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	out := tensor.New(x.Rows, p.out.Tot)
	for r := 0; r < x.Rows; r++ {
		h := refStack(p.trunk, x.Row(r))
		for _, b := range needed[r] {
			blk := &p.proj[b]
			refSpans(&blk.spans, h, out.Row(r)[blk.col:blk.col+blk.width])
		}
	}
	return out
}

func refStack(layers []planLayer, in []float32) []float32 {
	v := append([]float32(nil), in...)
	for _, l := range layers {
		switch l := l.(type) {
		case *packedLinear:
			next := make([]float32, l.outW)
			refSpans(&l.spans, v, next)
			v = next
		case reluInPlace:
			for i := range v {
				v[i] = max(v[i], 0)
			}
		case *residualPlan:
			fx := refStack(l.inner, v)
			sum := make([]float32, len(v))
			for i := range v {
				sum[i] = v[i] + fx[i]
			}
			v = sum
		default:
			panic(fmt.Sprintf("refStack: %T", l))
		}
	}
	return v
}

func refSpans(s *spans, x, dst []float32) {
	clear(dst)
	for k, st := range s.start {
		av := x[k]
		if av == 0 {
			continue
		}
		seg := dst[st:]
		for i := s.off[k]; i < s.off[k+1]; i++ {
			j := i - s.off[k]
			if s.wq != nil {
				alpha := float32(av * s.scale[k])
				seg[j] += float32(alpha * float32(s.wq[i]))
			} else {
				seg[j] += float32(av * s.w[i])
			}
		}
	}
	for j, bv := range s.bias {
		dst[j] += bv
	}
}

// TestPlanRowBlocksBitwise: the row-block pass computes every needed logit
// bit for bit as the serial per-row reference does, whatever the batch size
// (inline below one row block, one or several blocks, a ragged last block),
// the worker count or the kernel tier. One plan serves every case, so its
// reused buffers also start each pass holding the previous pass's values.
func TestPlanRowBlocksBitwise(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	tier := tensor.KernelTier()
	defer tensor.SetKernelTier(tier)
	for name, m := range rowBlockNets() {
		for _, quant := range []bool{false, true} {
			p := NewPlan(m, PlanConfig{Quantize: quant})
			for _, rows := range []int{1, 2, 7, 8, 9, 33, 64, 67} {
				x, needed := rowBlockBatch(m, rows, int64(rows))
				want := refForward(p, x, needed)
				for _, tr := range tensor.KernelTiers() {
					if err := tensor.SetKernelTier(tr); err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 4} {
						tensor.SetMaxWorkers(workers)
						got := p.Forward(x, needed)
						for r, blocks := range needed {
							for _, b := range blocks {
								g, w := m.Out.Slice(got.Row(r), int(b)), m.Out.Slice(want.Row(r), int(b))
								for k := range w {
									if math.Float32bits(g[k]) != math.Float32bits(w[k]) {
										t.Fatalf("%s quant=%v rows=%d tier=%s workers=%d: row %d block %d logit %d is %v, the per-row reference %v",
											name, quant, rows, tr, workers, r, b, k, g[k], w[k])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanForwardAllocs: on a warmed plan, a batch smaller than one row
// block allocates nothing, which also proves it never forks (a go statement
// and ParallelFor's join object both allocate), and a 64-row batch
// allocates no more than two bare ParallelFor forks do: one per phase,
// whatever the layer count.
func TestPlanForwardAllocs(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(2)
	var sink atomic.Int64
	fork := testing.AllocsPerRun(50, func() {
		tensor.ParallelFor(64, 1, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	})
	if fork == 0 {
		t.Fatal("a ParallelFor fork allocated nothing; the bound below would prove nothing")
	}
	for name, m := range rowBlockNets() {
		for _, quant := range []bool{false, true} {
			p := NewPlan(m, PlanConfig{Quantize: quant})
			x, needed := rowBlockBatch(m, 64, 7)
			p.Forward(x, needed)
			for _, rows := range []int{1, rowBlock - 1} {
				small := &tensor.Matrix{Rows: rows, Cols: x.Cols, Data: x.Data[:rows*x.Cols]}
				if a := testing.AllocsPerRun(50, func() { p.Forward(small, needed[:rows]) }); a != 0 {
					t.Errorf("%s quant=%v: a %d-row Forward allocates %v times, want 0", name, quant, rows, a)
				}
			}
			if a := testing.AllocsPerRun(50, func() { p.Forward(x, needed) }); a > 2*fork {
				t.Errorf("%s quant=%v: a 64-row Forward allocates %v times, more than two forks (%v each)", name, quant, a, fork)
			}
		}
	}
}

// TestPlanConcurrentScratches: passes on distinct scratches run at once on
// one plan, each goroutine cycling through batch sizes on either side of a
// row block, and every needed logit is bitwise what Forward computes for the
// same batch. Under -race this is also the check that a pass writes nothing
// outside its scratch.
func TestPlanConcurrentScratches(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(2)
	sizes := []int{1, 7, 8, 33, 64}
	for name, m := range rowBlockNets() {
		for _, quant := range []bool{false, true} {
			p := NewPlan(m, PlanConfig{Quantize: quant})
			xs := make([]*tensor.Matrix, len(sizes))
			needed := make([][][]int32, len(sizes))
			want := make([]*tensor.Matrix, len(sizes))
			for i, rows := range sizes {
				xs[i], needed[i] = rowBlockBatch(m, rows, int64(100+rows))
				want[i] = p.Forward(xs[i], needed[i]).Clone()
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var s Scratch
					for iter := 0; iter < 20; iter++ {
						i := (g + iter) % len(sizes)
						got := p.Run(&s, xs[i], needed[i])
						for r, blocks := range needed[i] {
							for _, b := range blocks {
								gs, ws := m.Out.Slice(got.Row(r), int(b)), m.Out.Slice(want[i].Row(r), int(b))
								for k := range ws {
									if math.Float32bits(gs[k]) != math.Float32bits(ws[k]) {
										t.Errorf("%s quant=%v goroutine %d: %d rows, row %d block %d logit %d is %v, Forward's %v",
											name, quant, g, sizes[i], r, b, k, gs[k], ws[k])
										return
									}
								}
							}
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}
