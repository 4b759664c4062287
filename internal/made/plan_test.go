package made

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"duet/internal/nn"
	"duet/internal/relation"
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

// spans is the layout the plan computed on before column panels: input
// unit k's weights are one contiguous span, off[k]..off[k+1], that lands on
// outputs start[k], start[k]+1, ... Exactly one of w (float32) and wq (int8
// codes with one scale per span) holds the spans.
type spans struct {
	start []int32   // per input unit: first output its span reaches
	off   []int32   // per input unit: offset into w/wq; len(start)+1
	w     []float32 // float32 spans
	wq    []int8    // quantized spans; same offsets as w
	scale []float32 // per input unit: dequant scale of its span
	bias  []float32 // per output; nil when the layer has none
}

// quantize replaces the float32 spans with int8 codes and one scale each.
func (s *spans) quantize() {
	s.wq = make([]int8, len(s.w))
	s.scale = make([]float32, len(s.start))
	for k := range s.start {
		lo, hi := s.off[k], s.off[k+1]
		s.scale[k] = tensor.QuantizeI8S(s.wq[lo:hi], s.w[lo:hi])
	}
	s.w = nil
}

// linearSpans packs l as spans: input units in rowOrder (nil = natural),
// outputs in colOrder, each unit's span its output row trimmed of exact
// zeros at both ends.
func linearSpans(l *nn.Linear, rowOrder, colOrder []int32) spans {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	sp := spans{start: make([]int32, l.In), off: make([]int32, l.In+1)}
	row := make([]float32, l.Out)
	for a, k := range rowOrder {
		orig := W.Row(int(k))
		for pcol, j := range colOrder {
			row[pcol] = orig[j]
		}
		lo, hi := 0, len(row)
		for lo < hi && row[lo] == 0 {
			lo++
		}
		for hi > lo && row[hi-1] == 0 {
			hi--
		}
		sp.start[a] = int32(lo)
		sp.w = append(sp.w, row[lo:hi]...)
		sp.off[a+1] = int32(len(sp.w))
	}
	if l.Bias != nil {
		sp.bias = make([]float32, l.Out)
		for pcol, j := range colOrder {
			sp.bias[pcol] = l.Bias.W.Data[j]
		}
	}
	return sp
}

// blockSpans packs the output columns [col, col+width) of l as a dense
// slab over the hidden units in rowOrder up to the last one with a nonzero
// weight in the block: each unit's span is the whole block.
func blockSpans(l *nn.Linear, col, width int, rowOrder []int32) spans {
	W := l.Weight.W
	cut := 0
	for a, k := range rowOrder {
		for _, v := range W.Row(int(k))[col : col+width] {
			if v != 0 {
				cut = a + 1
				break
			}
		}
	}
	sp := spans{start: make([]int32, cut), off: make([]int32, cut+1)}
	for t, k := range rowOrder[:cut] {
		sp.w = append(sp.w, W.Row(int(k))[col:col+width]...)
		sp.off[t+1] = int32(len(sp.w))
	}
	if l.Bias != nil {
		sp.bias = append([]float32(nil), l.Bias.W.Data[col:col+width]...)
	}
	return sp
}

// spanNet is a plan's network in the span layout: the same units and
// layouts (taken from the plan's compiled stages), packed and quantized as
// spans. It is the reference the panels are held to.
type spanNet struct {
	trunk []spanStage
	proj  []spans // per output block
	out   nn.Blocks
}

// spanStage is one trunk stage: a linear layer's spans, a ReLU, or a
// residual branch.
type spanStage struct {
	lin   *spans
	width int
	relu  bool
	inner []spanStage
}

func newSpanNet(m *MADE, p *Plan) *spanNet {
	layers := m.Net.Layers
	trunk, order := spanStack(layers[:len(layers)-1], p.trunk, nil, p.quantized)
	n := &spanNet{trunk: trunk, out: m.Out}
	last := &layers[len(layers)-1].(*nn.MaskedLinear).Linear
	for b := range p.proj {
		sp := blockSpans(last, m.Out.Off[b], m.Out.Len[b], order)
		if p.quantized {
			sp.quantize()
		}
		n.proj = append(n.proj, sp)
	}
	return n
}

// spanStack walks a layer list beside its compiled stages, taking each
// linear stage's output layout from the plan. It returns the stages and the
// layout of the stack's output.
func spanStack(layers []nn.Layer, compiled []planLayer, order []int32, quant bool) ([]spanStage, []int32) {
	var out []spanStage
	for i, l := range layers {
		switch c := compiled[i].(type) {
		case *packedLinear:
			lin, ok := l.(*nn.Linear)
			if !ok {
				lin = &l.(*nn.MaskedLinear).Linear
			}
			sp := linearSpans(lin, order, c.cols)
			if quant {
				sp.quantize()
			}
			out = append(out, spanStage{lin: &sp, width: lin.Out})
			order = c.cols
		case reluInPlace:
			out = append(out, spanStage{relu: true})
		case *residualPlan:
			var inner []spanStage
			inner, order = spanStack(l.(*nn.Residual).Inner.(*nn.Sequential).Layers, c.inner, order, quant)
			out = append(out, spanStage{inner: inner})
		default:
			panic(fmt.Sprintf("spanStack: %T", c))
		}
	}
	return out, order
}

// forward computes the needed blocks of every row: the trunk in row blocks,
// then each needed block one row at a time, every linear stage by
// accumulate.
func (n *spanNet) forward(x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	h := spanStages(n.trunk, x)
	out := tensor.New(x.Rows, n.out.Tot)
	for r, blocks := range needed {
		for _, b := range blocks {
			n.proj[b].accumulate(h, []int32{int32(r)}, out, n.out.Off[b], n.out.Len[b])
		}
	}
	return out
}

func spanStages(stages []spanStage, x *tensor.Matrix) *tensor.Matrix {
	for _, st := range stages {
		switch {
		case st.lin != nil:
			next := tensor.New(x.Rows, st.width)
			for lo := 0; lo < x.Rows; lo += rowBlock {
				var rows []int32
				for r := lo; r < min(lo+rowBlock, x.Rows); r++ {
					rows = append(rows, int32(r))
				}
				st.lin.accumulate(x, rows, next, 0, st.width)
			}
			x = next
		case st.relu:
			x = x.Clone()
			for i, v := range x.Data {
				x.Data[i] = max(v, 0)
			}
		default:
			fx := spanStages(st.inner, x)
			sum := tensor.New(x.Rows, x.Cols)
			for i, v := range x.Data {
				sum.Data[i] = v + fx.Data[i]
			}
			x = sum
		}
	}
	return x
}

// accumulate is the span layout's kernel loop, as the plan ran it before
// panels, with the scalar reference in place of the saxpy kernels (which
// every tier matches bit for bit). It computes dst[r][col:col+width] for
// each of at most rowBlock listed rows r: from +0, add x[r][k] × span k for
// ascending k, skipping zero activations, then add the bias.
func (s *spans) accumulate(x *tensor.Matrix, rows []int32, dst *tensor.Matrix, col, width int) {
	var xs, ds [rowBlock][]float32
	n := len(rows)
	for i, r := range rows {
		xs[i] = x.Row(int(r))[:len(s.start)]
		ds[i] = dst.Row(int(r))[col : col+width]
		clear(ds[i])
	}
	for k, st := range s.start {
		for i := 0; i < n; i++ {
			av := xs[i][k]
			if av == 0 {
				continue
			}
			d := ds[i][st:]
			if s.wq != nil {
				// One rounding for activation×scale, then the
				// dequantize-accumulate.
				alpha := av * s.scale[k]
				for j, q := range s.wq[s.off[k]:s.off[k+1]] {
					d[j] += float32(alpha * float32(q))
				}
			} else {
				for j, w := range s.w[s.off[k]:s.off[k+1]] {
					d[j] += float32(av * w)
				}
			}
		}
	}
	if s.bias != nil {
		for _, seg := range ds[:n] {
			for j, bv := range s.bias {
				seg[j] += bv
			}
		}
	}
}

// sameBlocks fails t unless got and want agree bit for bit on every block
// each row needs.
func sameBlocks(t *testing.T, what string, out nn.Blocks, got, want *tensor.Matrix, needed [][]int32) {
	t.Helper()
	for r, blocks := range needed {
		for _, b := range blocks {
			g, w := out.Slice(got.Row(r), int(b)), out.Slice(want.Row(r), int(b))
			for k := range w {
				if math.Float32bits(g[k]) != math.Float32bits(w[k]) {
					t.Fatalf("%s: row %d block %d logit %d is %v (%#x), the span reference %v (%#x)",
						what, r, b, k, g[k], math.Float32bits(g[k]), w[k], math.Float32bits(w[k]))
				}
			}
		}
	}
}

// TestPlanPanelsMatchSpanReference: on nets shaped like the two benchmark
// models (the DMV table's plain MADE with its 1,243-wide output block, the
// census table's ResMADE), the panel-packed pass computes every needed logit
// bit for bit as the span layout's accumulate loop does, f32 and int8. The
// nets carry planted exact-zero weights inside spans and random biases, and
// the batches exact-zero and negative inputs, so panels add ±0 products,
// including negative ones on a +0 destination, that the span loop never
// adds.
func TestPlanPanelsMatchSpanReference(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	tensor.SetMaxWorkers(2)
	nets := map[string]*MADE{
		"dmv":    benchNet(relation.SynDMV(20000, 1), []int{512, 256, 512, 128, 1024}, false),
		"census": benchNet(relation.SynCensus(20000, 1), []int{128, 128}, true),
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range nets {
		for _, p := range m.Params() {
			for i, v := range p.W.Data {
				switch {
				case p.W.Rows == 1: // a bias
					p.W.Data[i] = float32(rng.NormFloat64())
				case v != 0 && rng.Intn(10) == 0:
					p.W.Data[i] = 0
				}
			}
		}
	}
	for name, m := range nets {
		for _, quant := range []bool{false, true} {
			p := NewPlan(m, PlanConfig{Quantize: quant})
			ref := newSpanNet(m, p)
			for _, rows := range []int{1, 7, 8, 64} {
				x, needed := planBatch(m, rows, int64(rows))
				sameBlocks(t, fmt.Sprintf("%s quant=%v rows=%d", name, quant, rows), m.Out, p.Forward(x, needed), ref.forward(x, needed), needed)
			}
		}
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
			ref := newSpanNet(m, p)
			for _, rows := range []int{1, 2, 7, 8, 9, 33, 64, 67} {
				x, needed := rowBlockBatch(m, rows, int64(rows))
				want := ref.forward(x, needed)
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
