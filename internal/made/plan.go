// Plan: a packed-sparse, restriction-aware inference compilation of a MADE
// network. MADE's degree masks zero roughly half of every weight matrix, and
// Duet's masked product (Algorithm 3) reads only the logit blocks of columns
// a query actually constrains — but the generic layer stack multiplies every
// zero and computes every block anyway. A Plan snapshots the current weights
// into a form that skips both:
//
//   - hidden units are re-ordered by autoregressive degree (a private layout
//     inside the plan; inputs and logits keep their public layout), which
//     gathers each unit's structurally-allowed connections into one tight
//     contiguous span — the kernel streams only real weights, with no
//     branches beyond the zero-activation skip;
//   - the output projection becomes, per block, a dense prefix of the
//     degree-sorted hidden units, and Forward computes only the blocks each
//     row needs.
//
// Like the fused MPSN built by Merge, planned results match the generic
// layer stack up to floating-point summation order (the degree sort changes
// the order in which a logit's contributions are added); they are bitwise
// deterministic and independent of batch composition, because every kernel
// processes rows independently in a fixed order. A Plan is a snapshot:
// weights updated by training are not reflected; rebuild after training.
// Forward is safe for concurrent use only via external serialization.
//
// PlanConfig{Quantize: true} builds the plan with int8 weights instead of
// float32: every packed span (and every hidden row of an output slab) stores
// symmetric int8 codes plus one float32 scale (tensor.QuantizeI8S), and
// Forward runs the fused dequantize-accumulate kernel (tensor.SaxpyI8) with
// the activation×scale product folded into alpha. Weight memory shrinks
// close to 4x and the kernel streams a quarter of the bytes; results are an
// approximation of the f32 plan (core.TestQuantizedPlanAccuracyAndSize
// bounds the q-error delta), but remain deterministic and
// batch-composition independent.
package made

import (
	"fmt"
	"sort"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// PlanConfig selects how NewPlan compiles the weights.
type PlanConfig struct {
	// Quantize stores weights as per-span int8 codes with float32 scales
	// instead of float32, trading ≤ one quantization step of weight
	// precision per element for ~4x smaller resident spans.
	Quantize bool
}

// Plan is a compiled inference path for one MADE network. Build with NewPlan,
// run with Forward.
type Plan struct {
	out       nn.Blocks
	trunk     []planLayer
	proj      *packedOutput
	logits    *tensor.Matrix // reusable output buffer
	quantized bool
}

// planLayer is one compiled trunk stage.
type planLayer interface {
	forward(x *tensor.Matrix) *tensor.Matrix
	weightBytes() int
}

// NewPlan compiles the network's current weights.
func NewPlan(m *MADE, cfg PlanConfig) *Plan {
	layers := m.Net.Layers
	if len(layers) == 0 {
		panic("made: empty network")
	}
	last, ok := layers[len(layers)-1].(*nn.MaskedLinear)
	if !ok {
		panic(fmt.Sprintf("made: final layer is %T, expected *nn.MaskedLinear", layers[len(layers)-1]))
	}
	p := &Plan{out: m.Out, logits: &tensor.Matrix{}, quantized: cfg.Quantize}
	trunk, trunkOrder := compileStack(layers[:len(layers)-1], nil, nil, cfg.Quantize)
	p.trunk = trunk
	p.proj = packOutput(&last.Linear, m.Out, trunkOrder, cfg.Quantize)
	return p
}

// Quantized reports whether the plan stores int8 weights.
func (p *Plan) Quantized() bool { return p.quantized }

// WeightBytes returns the resident bytes of the plan's weight payloads
// (packed spans, output slabs, scales and biases; excludes span metadata
// and activation buffers). It is the number operators compare across
// quantized and f32 plans.
func (p *Plan) WeightBytes() int {
	total := 0
	for _, l := range p.trunk {
		total += l.weightBytes()
	}
	for i := range p.proj.blocks {
		blk := &p.proj.blocks[i]
		total += 4*len(blk.w) + len(blk.wq) + 4*len(blk.scale) + 4*len(blk.bias)
	}
	return total
}

// compileStack compiles a trunk layer list. rowOrder is the layout of the
// stack's input buffer (nil = natural). forceCols, when non-nil, pins the
// column order of the stack's final re-ordering layer (residual branches
// must end in the layout they started in, so the skip add lines up). It
// returns the compiled stack and the layout its output is in.
func compileStack(layers []nn.Layer, rowOrder, forceCols []int32, quant bool) ([]planLayer, []int32) {
	out := make([]planLayer, 0, len(layers))
	// Find the last layer that re-orders columns, so forceCols lands on it.
	pinIdx := -1
	for i, l := range layers {
		switch l.(type) {
		case *nn.MaskedLinear, *nn.Linear, *nn.Residual:
			pinIdx = i
		}
	}
	if pinIdx < 0 && forceCols != nil {
		panic("made: cannot pin the layout of a stack with no linear layer")
	}
	colOrder := rowOrder
	for i, l := range layers {
		var pin []int32
		if i == pinIdx {
			pin = forceCols
		}
		switch l := l.(type) {
		case *nn.MaskedLinear:
			pl := packLinear(&l.Linear, colOrder, pin, quant)
			colOrder = pl.cols
			out = append(out, pl)
		case *nn.Linear:
			pl := packLinear(l, colOrder, pin, quant)
			colOrder = pl.cols
			out = append(out, pl)
		case *nn.ReLU:
			out = append(out, reluInPlace{})
		case *nn.Residual:
			inner, ok := l.Inner.(*nn.Sequential)
			if !ok {
				panic(fmt.Sprintf("made: residual inner is %T, expected *nn.Sequential", l.Inner))
			}
			// The skip connection adds the branch output to its input, so
			// the branch must come back in the layout it was given; an
			// explicit outer pin propagates inward.
			want := colOrder
			if pin != nil {
				want = pin
			}
			if want == nil {
				want = identityOrder(innerOutWidth(inner))
			}
			compiled, _ := compileStack(inner.Layers, colOrder, want, quant)
			out = append(out, &residualPlan{inner: compiled, out: &tensor.Matrix{}})
			colOrder = want
		default:
			panic(fmt.Sprintf("made: cannot compile layer %T", l))
		}
	}
	return out, colOrder
}

func innerOutWidth(s *nn.Sequential) int {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		switch l := s.Layers[i].(type) {
		case *nn.MaskedLinear:
			return l.Out
		case *nn.Linear:
			return l.Out
		}
	}
	panic("made: residual branch has no linear layer")
}

func identityOrder(n int) []int32 {
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

// ----- packed trunk linear -----

// packedLinear is a span-packed snapshot of a Linear/MaskedLinear with its
// output units re-ordered so each input unit's allowed outputs form one
// contiguous span. Exactly one of w (float32 spans) and wq (int8 codes with
// one scale per input row's span) is populated, chosen at pack time.
type packedLinear struct {
	inW, outW int
	cols      []int32 // output layout: position p holds original unit cols[p]
	start     []int32 // per input row: first output position of its span
	wOff      []int32 // per input row: offset into w/wq; len inW+1
	w         []float32
	wq        []int8    // quantized spans; same offsets as w
	scale     []float32 // per input row: dequant scale of its span
	bias      []float32 // re-ordered; nil when the layer has none
	out       *tensor.Matrix
}

func (p *packedLinear) weightBytes() int {
	return 4*len(p.w) + len(p.wq) + 4*len(p.scale) + 4*len(p.bias)
}

// packLinear snapshots l. rowOrder is the layout of the incoming activation
// buffer (nil = natural); colOrder pins the output layout (nil = sort units
// by connectivity extent so spans are tight). quant selects int8 spans.
func packLinear(l *nn.Linear, rowOrder, colOrder []int32, quant bool) *packedLinear {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	if colOrder == nil {
		colOrder = sortBySupport(W, rowOrder)
	}
	p := &packedLinear{inW: l.In, outW: l.Out, cols: colOrder, out: &tensor.Matrix{}}
	p.start = make([]int32, l.In)
	p.wOff = make([]int32, l.In+1)
	row := make([]float32, l.Out) // layer row in output layout
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
		p.start[a] = int32(lo)
		p.w = append(p.w, row[lo:hi]...)
		p.wOff[a+1] = int32(len(p.w))
	}
	if l.Bias != nil {
		p.bias = make([]float32, l.Out)
		for pcol, j := range colOrder {
			p.bias[pcol] = l.Bias.W.Data[j]
		}
	}
	if quant {
		p.wq = make([]int8, len(p.w))
		p.scale = make([]float32, l.In)
		for a := 0; a < l.In; a++ {
			lo, hi := p.wOff[a], p.wOff[a+1]
			p.scale[a] = tensor.QuantizeI8S(p.wq[lo:hi], p.w[lo:hi])
		}
		p.w = nil // drop the f32 copy; wq+scale are the resident weights
	}
	return p
}

// sortBySupport orders output units by how deep into the (already ordered)
// input their connectivity reaches, stably: for MADE degree masks this is
// exactly the degree sort that makes every span contiguous.
func sortBySupport(W *tensor.Matrix, rowOrder []int32) []int32 {
	support := make([]int, W.Cols)
	for a, k := range rowOrder {
		row := W.Row(int(k))
		for j, v := range row {
			if v != 0 {
				support[j] = a + 1
			}
		}
	}
	ord := identityOrder(W.Cols)
	sort.SliceStable(ord, func(x, y int) bool { return support[ord[x]] < support[ord[y]] })
	return ord
}

func (p *packedLinear) forward(x *tensor.Matrix) *tensor.Matrix {
	out := p.out.Resize(x.Rows, p.outW)
	quant := p.wq != nil
	tensor.ParallelFor(x.Rows, 8, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			xRow := x.Row(r)
			dst := out.Row(r)
			for j := range dst {
				dst[j] = 0
			}
			if quant {
				for k, av := range xRow {
					if av == 0 {
						continue
					}
					wq := p.wq[p.wOff[k]:p.wOff[k+1]]
					if len(wq) == 0 {
						continue
					}
					// One rounding for activation×scale, then the fused
					// dequantize-accumulate kernel.
					tensor.SaxpyI8(av*p.scale[k], wq, dst[p.start[k]:])
				}
			} else {
				for k, av := range xRow {
					if av == 0 {
						continue
					}
					w := p.w[p.wOff[k]:p.wOff[k+1]]
					if len(w) == 0 {
						continue
					}
					tensor.Saxpy(av, w, dst[p.start[k]:])
				}
			}
			if p.bias != nil {
				for j, bv := range p.bias {
					dst[j] += bv
				}
			}
		}
	})
	return out
}

// ----- in-place ReLU -----

type reluInPlace struct{}

func (reluInPlace) forward(x *tensor.Matrix) *tensor.Matrix {
	for i, v := range x.Data {
		x.Data[i] = max(v, 0)
	}
	return x
}

func (reluInPlace) weightBytes() int { return 0 }

// ----- residual block -----

type residualPlan struct {
	inner []planLayer
	out   *tensor.Matrix
}

func (p *residualPlan) forward(x *tensor.Matrix) *tensor.Matrix {
	fx := x
	for _, l := range p.inner {
		fx = l.forward(fx)
	}
	out := p.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = v + fx.Data[i]
	}
	return out
}

func (p *residualPlan) weightBytes() int {
	total := 0
	for _, l := range p.inner {
		total += l.weightBytes()
	}
	return total
}

// ----- packed output projection -----

// outBlock is one output block's packed weights. In the degree-sorted hidden
// layout its contributing units are a prefix [0, cut), so the weights are a
// dense cut×width slab streamed linearly. Exactly one of w and wq holds the
// slab; wq carries one scale per hidden row.
type outBlock struct {
	off, width int
	cut        int
	w          []float32 // cut*width
	wq         []int8    // quantized slab; same layout
	scale      []float32 // per hidden row t < cut: dequant scale
	bias       []float32 // the block's bias slice
}

type packedOutput struct {
	blocks []outBlock
}

// packOutput snapshots the output projection block by block, rows in the
// trunk's output layout. quant selects int8 slabs.
func packOutput(l *nn.Linear, out nn.Blocks, rowOrder []int32, quant bool) *packedOutput {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	p := &packedOutput{blocks: make([]outBlock, out.N())}
	for b := 0; b < out.N(); b++ {
		blk := &p.blocks[b]
		blk.off, blk.width = out.Off[b], out.Len[b]
		cut := 0
		for a, k := range rowOrder {
			row := W.Row(int(k))[blk.off : blk.off+blk.width]
			for _, v := range row {
				if v != 0 {
					cut = a + 1
					break
				}
			}
		}
		blk.cut = cut
		blk.w = make([]float32, 0, cut*blk.width)
		for _, k := range rowOrder[:cut] {
			blk.w = append(blk.w, W.Row(int(k))[blk.off:blk.off+blk.width]...)
		}
		if l.Bias != nil {
			blk.bias = append([]float32(nil), l.Bias.W.Data[blk.off:blk.off+blk.width]...)
		}
		if quant {
			blk.wq = make([]int8, len(blk.w))
			blk.scale = make([]float32, cut)
			for t := 0; t < cut; t++ {
				blk.scale[t] = tensor.QuantizeI8S(blk.wq[t*blk.width:(t+1)*blk.width], blk.w[t*blk.width:(t+1)*blk.width])
			}
			blk.w = nil
		}
	}
	return p
}

// forward computes the requested blocks row-major; logits segments of blocks
// not requested are left untouched.
func (p *packedOutput) forward(h *tensor.Matrix, needed [][]int32, logits *tensor.Matrix) {
	tensor.ParallelFor(h.Rows, 4, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			hRow := h.Row(r)
			dst := logits.Row(r)
			for _, b := range needed[r] {
				blk := &p.blocks[b]
				seg := dst[blk.off : blk.off+blk.width]
				for j := range seg {
					seg[j] = 0
				}
				width := blk.width
				if blk.wq != nil {
					for t := 0; t < blk.cut; t++ {
						av := hRow[t]
						if av == 0 {
							continue
						}
						tensor.SaxpyI8(av*blk.scale[t], blk.wq[t*width:(t+1)*width], seg)
					}
				} else {
					for t := 0; t < blk.cut; t++ {
						av := hRow[t]
						if av == 0 {
							continue
						}
						tensor.Saxpy(av, blk.w[t*width:(t+1)*width], seg)
					}
				}
				if blk.bias != nil {
					for j, bv := range blk.bias {
						seg[j] += bv
					}
				}
			}
		}
	})
}

// Forward runs the plan on a batch. needed[r] lists the output blocks to
// compute for row r, ascending; segments of blocks not requested hold
// unspecified values. The returned matrix is owned by the plan and valid
// until the next Forward. Rows are processed independently in a fixed
// order, so results are bitwise independent of batch composition.
func (p *Plan) Forward(x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	h := x
	for _, l := range p.trunk {
		h = l.forward(h)
	}
	logits := p.logits.Resize(x.Rows, p.out.Tot)
	p.proj.forward(h, needed, logits)
	return logits
}
