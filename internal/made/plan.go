// Plan: a packed-sparse, restriction-aware inference compilation of a MADE
// network. MADE's degree masks zero roughly half of every weight matrix, and
// Duet's masked product (Algorithm 3) reads only the logit blocks of columns
// a query actually constrains — but the generic layer stack multiplies every
// zero and computes every block anyway. A Plan snapshots the current weights
// into a form that skips both:
//
//   - hidden units are re-ordered by autoregressive degree (a private layout
//     inside the plan; inputs and logits keep their public layout), which
//     gathers each unit's structurally-allowed connections into one
//     contiguous span of outputs;
//   - the output projection becomes, per block, a dense prefix of the
//     degree-sorted hidden units (its cut), and Forward computes only the
//     blocks each row needs.
//
// Every packed linear and every output block is stored as column panels of
// at most panelWidth (64) floats, the last panel of each rounded up to a
// multiple of 8. Panel p holds one row per input unit below K_p, one past
// the last unit with a nonzero weight in the panel (for an output block, at
// most its cut); entries outside a unit's span are zero. A pass lists each row's
// nonzero activations of a layer input with their units, ascending, and a
// panel reads the prefix of the list below its K_p: tensor.AxpyPanel adds
// those rows into one 64-column strip of the destination held in registers,
// so the destination is loaded and stored once per panel, not once per term.
//
// Forward runs a batch in two phases. The trunk phase takes blocks of
// rowBlock rows through every trunk layer, each panel serving every row of
// the block before the next panel is loaded; bias, ReLU and the residual add
// follow per block. The projection phase has one work item per (output
// block, panel), over every row of the batch that needs the block, so each
// slab panel is loaded once per pass. Each phase is one tensor.ParallelFor
// whose workers take work items, largest first, from an atomic counter; a
// batch smaller than one row block runs inline, with no fork and no
// allocation.
//
// Every output element starts at +0, adds its terms in ascending input order
// (skipping zero activations), then adds its bias: exactly the additions, in
// exactly the order, of computing its row alone. A panel also adds a product
// for every listed unit below K_p whose span misses the element; its weight
// entry is zero, so with finite weights and activations the product is ±0.
// The destination starts at +0 and never becomes −0 (x + (−x) rounds to +0,
// and no sum of finite nonzero terms underflows to zero), and adding ±0 to a
// value other than −0 returns it unchanged; so the padded terms change
// nothing, and each logit is bitwise the sum of its span terms.
// Results are therefore bitwise independent of batch composition, row-block
// boundaries, panel layout, worker count and kernel tier. They match the
// generic layer stack up to floating-point summation order (the degree sort
// changes the order in which a logit's contributions are added). A Plan is
// immutable after NewPlan and does not see later training; compile a new
// one. A pass writes only its Scratch, so Run on distinct scratches may run
// concurrently; Forward runs on a scratch the plan keeps, so its callers
// serialize.
//
// PlanConfig{Quantize: true} builds the plan with int8 weights instead of
// float32: every input unit's row of a packed layer (and of each output
// block) is quantized to symmetric int8 codes plus one float32 scale
// (tensor.QuantizeI8S), the codes take the f32 panel layout, and Forward
// runs tensor.AxpyPanelI8, which folds the activation×scale product into
// each term's alpha. Weight memory shrinks close to 4x and the kernel
// streams a quarter of the bytes; results are an approximation of the f32
// plan (core.TestQuantizedPlanAccuracyAndSize bounds the q-error delta), but
// remain deterministic and batch-composition independent.
package made

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// rowBlock is how many rows share one load of a trunk panel: the trunk
// phase's row block.
const rowBlock = 8

// PlanConfig selects how NewPlan compiles the weights.
type PlanConfig struct {
	// Quantize stores weights as per-span int8 codes with float32 scales
	// instead of float32, trading ≤ one quantization step of weight
	// precision per element for ~4x smaller resident weights.
	Quantize bool
}

// Plan is a compiled inference path for one MADE network. Build with NewPlan,
// run with Run or Forward.
type Plan struct {
	out       nn.Blocks
	trunk     []planLayer
	proj      []outBlock
	quantized bool
	nout      int // trunk stages with an output buffer of their own

	held Scratch // Forward's scratch
}

// Scratch is the memory one pass writes: trunk outputs, logits, the
// projection's work lists and each row's activation list. The zero value is
// ready to use; buffers grow to the largest batch run on it.
type Scratch struct {
	x, h   *tensor.Matrix  // the pass's input and the trunk's output
	outs   []tensor.Matrix // per trunk stage with an output buffer, in compile order
	logits tensor.Matrix
	seq    []int32      // 0, 1, 2, ...: the trunk's row blocks slice it
	rowsOf [][]int32    // per output block: the rows that need it, ascending
	items  []projItem   // the projection phase's work, see gather
	next   atomic.Int64 // the next work item of a forked phase

	// Per row r, from r*listCap: the row's nonzero activations of the layer
	// input being read, and their units, ascending; nnz[r] of them.
	act     []float32
	unit    []int32
	nnz     []int32
	listCap int
}

// planLayer is one compiled trunk stage.
type planLayer interface {
	// bind sizes the stage's buffers in s for a pass over x's rows and
	// returns the matrix its forward writes. It runs once per pass, before
	// any forward.
	bind(s *Scratch, x *tensor.Matrix) *tensor.Matrix
	// forward computes the listed rows of the stage's output from the same
	// rows of x. Calls on disjoint rows may run concurrently.
	forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix
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
	p := &Plan{out: m.Out, quantized: cfg.Quantize}
	trunk, trunkOrder := compileStack(layers[:len(layers)-1], nil, nil, cfg.Quantize, &p.nout)
	p.trunk = trunk
	p.proj = packOutput(&last.Linear, m.Out, trunkOrder, cfg.Quantize)
	return p
}

// Quantized reports whether the plan stores int8 weights.
func (p *Plan) Quantized() bool { return p.quantized }

// WeightBytes returns the resident bytes of the plan's weight payloads
// (packed panels, scales and biases; excludes panel metadata and
// activation buffers). It is the number operators compare across
// quantized and f32 plans.
func (p *Plan) WeightBytes() int {
	total := 0
	for _, l := range p.trunk {
		total += l.weightBytes()
	}
	for i := range p.proj {
		total += p.proj[i].weightBytes()
	}
	return total
}

// compileStack compiles a trunk layer list. rowOrder is the layout of the
// stack's input buffer (nil = natural). forceCols, when non-nil, pins the
// column order of the stack's final re-ordering layer (residual branches
// must end in the layout they started in, so the skip add lines up). It
// returns the compiled stack and the layout its output is in.
func compileStack(layers []nn.Layer, rowOrder, forceCols []int32, quant bool, nout *int) ([]planLayer, []int32) {
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
			pl := packLinear(&l.Linear, colOrder, pin, quant, nout)
			colOrder = pl.cols
			out = append(out, pl)
		case *nn.Linear:
			pl := packLinear(l, colOrder, pin, quant, nout)
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
			compiled, _ := compileStack(inner.Layers, colOrder, want, quant, nout)
			out = append(out, &residualPlan{inner: compiled, buf: *nout})
			*nout++
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

// ----- packed panels -----

// panelWidth is the widest column panel, in floats: a 64-column strip of a
// destination row fits the avx2 tier's registers.
const panelWidth = 64

// panel is one column panel of a packed matrix: its columns [col,
// col+width) of the matrix's outputs, and one row of width entries per input
// unit below k. width is panelWidth, or for the matrix's last panel its
// remaining columns rounded up to a multiple of 8, so a kernel reads whole
// groups of 8; the padding is zero.
type panel struct {
	col, width int
	k          int // one past the last unit with a nonzero weight in the panel
	off        int // the panel's first entry in w/wq
}

// panels is a packed weight matrix as the forward pass reads it: column
// panels whose rows are the input units' weights. Exactly one of w
// (float32) and wq (int8 codes, with scale per input unit) holds the
// entries, panel after panel.
type panels struct {
	width int // output columns
	ps    []panel
	w     []float32
	wq    []int8
	scale []float32
	bias  []float32
}

// packPanels packs the weights of n input units over width output columns;
// row(u, dst) writes unit u's weights, in output layout, to dst. quant
// stores each unit's row as int8 codes with one scale (tensor.QuantizeI8S
// over the row: zeros move neither the scale nor any code, so it equals the
// scale of the row's nonzero span).
func packPanels(n, width int, quant bool, bias []float32, row func(u int, dst []float32)) panels {
	pk := panels{width: width, bias: bias}
	for col := 0; col < width; col += panelWidth {
		pk.ps = append(pk.ps, panel{col: col, width: min(panelWidth, (width-col+7)&^7)})
	}
	buf := make([]float32, width)
	for u := 0; u < n; u++ {
		row(u, buf)
		for j, v := range buf {
			if v != 0 {
				pk.ps[j/panelWidth].k = u + 1
			}
		}
	}
	size, rows := 0, 0 // rows: units with a row in some panel
	for i := range pk.ps {
		pk.ps[i].off = size
		size += pk.ps[i].k * pk.ps[i].width
		rows = max(rows, pk.ps[i].k)
	}
	var codes []int8
	if quant {
		pk.wq, pk.scale, codes = make([]int8, size), make([]float32, rows), make([]int8, width)
	} else {
		pk.w = make([]float32, size)
	}
	for u := 0; u < rows; u++ {
		row(u, buf)
		if quant {
			pk.scale[u] = tensor.QuantizeI8S(codes, buf)
		}
		for _, pn := range pk.ps {
			if u >= pn.k {
				continue
			}
			at, lo, hi := pn.off+u*pn.width, pn.col, min(pn.col+pn.width, width)
			if quant {
				copy(pk.wq[at:], codes[lo:hi])
			} else {
				copy(pk.w[at:], buf[lo:hi])
			}
		}
	}
	return pk
}

func (pk *panels) weightBytes() int {
	return 4*len(pk.w) + len(pk.wq) + 4*len(pk.scale) + 4*len(pk.bias)
}

// panelRow sets dst, panel pn's columns of one row, to: from +0, act[t] ×
// unit[t]'s weights for the listed units below pn.k, in list order, then the
// bias. The list holds a row's nonzero activations in ascending unit order,
// so every element adds exactly the terms its span reaches, in ascending
// order, plus ±0 products for units whose span misses it; those leave it
// unchanged (see the package comment).
func (pk *panels) panelRow(pn *panel, act []float32, unit []int32, dst []float32) {
	n, _ := slices.BinarySearch(unit, int32(pn.k))
	clear(dst)
	if pk.wq != nil {
		tensor.AxpyPanelI8(dst, act[:n], unit[:n], pk.scale, pk.wq[pn.off:pn.off+pn.k*pn.width], pn.width)
	} else {
		tensor.AxpyPanel(dst, act[:n], unit[:n], pk.w[pn.off:pn.off+pn.k*pn.width], pn.width)
	}
	if pk.bias != nil {
		for j, bv := range pk.bias[pn.col : pn.col+len(dst)] {
			dst[j] += bv
		}
	}
}

// panelCols returns pn's real columns of dst, a row over the matrix's outputs.
func (pk *panels) panelCols(pn *panel, dst []float32) []float32 {
	return dst[pn.col:min(pn.col+pn.width, pk.width)]
}

// ----- packed trunk linear -----

// packedLinear is a panel-packed snapshot of a Linear/MaskedLinear with its
// output units re-ordered so each input unit's allowed outputs form one
// contiguous span.
type packedLinear struct {
	panels
	cols []int32 // output layout: position p holds original unit cols[p]
	buf  int     // index of the stage's output in Scratch.outs
}

// packLinear snapshots l. rowOrder is the layout of the incoming activation
// buffer (nil = natural); colOrder pins the output layout (nil = sort units
// by connectivity extent so spans are tight). quant selects int8 weights;
// the output buffer takes index *nout.
func packLinear(l *nn.Linear, rowOrder, colOrder []int32, quant bool, nout *int) *packedLinear {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	if colOrder == nil {
		colOrder = sortBySupport(W, rowOrder)
	}
	var bias []float32
	if l.Bias != nil {
		bias = make([]float32, l.Out)
		for pcol, j := range colOrder {
			bias[pcol] = l.Bias.W.Data[j]
		}
	}
	pk := packPanels(l.In, l.Out, quant, bias, func(u int, dst []float32) {
		orig := W.Row(int(rowOrder[u]))
		for pcol, j := range colOrder {
			dst[pcol] = orig[j]
		}
	})
	p := &packedLinear{panels: pk, cols: colOrder, buf: *nout}
	*nout++
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

func (p *packedLinear) bind(s *Scratch, x *tensor.Matrix) *tensor.Matrix {
	return s.outs[p.buf].Resize(x.Rows, p.width)
}

// forward lists each row's nonzero inputs, then runs panel by panel, each
// panel serving every listed row before the next is loaded.
func (p *packedLinear) forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	out := &s.outs[p.buf]
	for _, r := range rows {
		s.list(r, x.Row(int(r)))
	}
	for i := range p.ps {
		pn := &p.ps[i]
		for _, r := range rows {
			act, unit := s.listed(r)
			p.panelRow(pn, act, unit, p.panelCols(pn, out.Row(int(r))))
		}
	}
	return out
}

// ----- in-place ReLU -----

type reluInPlace struct{}

func (reluInPlace) bind(_ *Scratch, x *tensor.Matrix) *tensor.Matrix { return x }

func (reluInPlace) forward(_ *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	for _, r := range rows {
		row := x.Row(int(r))
		for i, v := range row {
			row[i] = max(v, 0)
		}
	}
	return x
}

func (reluInPlace) weightBytes() int { return 0 }

// ----- residual block -----

type residualPlan struct {
	inner []planLayer
	buf   int // index of the skip sum in Scratch.outs
}

func (p *residualPlan) bind(s *Scratch, x *tensor.Matrix) *tensor.Matrix {
	fx := x
	for _, l := range p.inner {
		fx = l.bind(s, fx)
	}
	return s.outs[p.buf].Resize(x.Rows, x.Cols)
}

func (p *residualPlan) forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	fx := x
	for _, l := range p.inner {
		fx = l.forward(s, fx, rows)
	}
	out := &s.outs[p.buf]
	for _, r := range rows {
		dst, in, branch := out.Row(int(r)), x.Row(int(r)), fx.Row(int(r))
		for i, v := range in {
			dst[i] = v + branch[i]
		}
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
// layout its contributing units are a prefix (its cut), so every panel of
// the block holds at most the cut's rows: a dense slab cut apart by columns.
type outBlock struct {
	panels
	col int // the block's logits are columns [col, col+width)
}

// packOutput snapshots the output projection block by block, rows in the
// trunk's output layout. quant selects int8 slabs.
func packOutput(l *nn.Linear, out nn.Blocks, rowOrder []int32, quant bool) []outBlock {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	blocks := make([]outBlock, out.N())
	for b := range blocks {
		col, width := out.Off[b], out.Len[b]
		var bias []float32
		if l.Bias != nil {
			bias = append(bias, l.Bias.W.Data[col:col+width]...)
		}
		blocks[b] = outBlock{col: col, panels: packPanels(l.In, width, quant, bias, func(u int, dst []float32) {
			copy(dst, W.Row(int(rowOrder[u]))[col:col+width])
		})}
	}
	return blocks
}

// ----- forward pass -----

// projItem is one work item of the projection phase: one panel of one
// output block, for every row that needs the block.
type projItem struct {
	blk  *outBlock
	pn   *panel
	rows []int32
	macs int // the item's size, for largest-first scheduling
}

// Forward is Run on the scratch the plan keeps: the result is valid until
// the next Forward, and Forward's callers serialize.
func (p *Plan) Forward(x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	return p.Run(&p.held, x, needed)
}

// Run runs the plan on a batch, writing every buffer of the pass in s.
// needed[r] lists the output blocks to compute for row r, ascending;
// segments of blocks not requested hold unspecified values. The returned
// matrix is owned by s and valid until s runs another pass.
//
// The pass is two phases (see the package comment): the trunk in blocks of
// rowBlock rows, each packed panel serving every row of the block; then one
// item per panel of each needed output block, serving every row that needs
// the block, so each slab panel is loaded once per pass. Each phase is at
// most one fork; a batch smaller than one row block runs inline and, once s
// has grown to the batch, without allocating. Every logit keeps the
// arithmetic of its row computed alone, so results are bitwise independent
// of batch composition.
func (p *Plan) Run(s *Scratch, x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	for len(s.outs) < p.nout {
		s.outs = append(s.outs, tensor.Matrix{})
	}
	h := x
	for _, l := range p.trunk {
		h = l.bind(s, h)
	}
	s.x, s.h = x, h
	s.logits.Resize(x.Rows, p.out.Tot)
	for len(s.seq) < x.Rows {
		s.seq = append(s.seq, int32(len(s.seq)))
	}
	// A list holds one layer input's row: the pass input's or a stage's.
	s.listCap = x.Cols
	for _, o := range s.outs[:p.nout] {
		s.listCap = max(s.listCap, o.Cols)
	}
	if n := x.Rows * s.listCap; len(s.act) < n {
		s.act, s.unit = make([]float32, n), make([]int32, n)
	}
	if len(s.nnz) < x.Rows {
		s.nnz = make([]int32, x.Rows)
	}
	fork := x.Rows >= rowBlock
	p.gather(s, needed[:x.Rows], fork)
	p.runPhase(s, trunkPhase, (x.Rows+rowBlock-1)/rowBlock, fork)
	p.runPhase(s, projPhase, len(s.items), fork)
	s.x, s.h = nil, nil
	return &s.logits
}

// list records row r's nonzero entries of in, a layer input, as the row's
// list: activations and their units, ascending. A row's list is rebuilt per
// trunk layer; the trunk's output list is the one the projection reads.
func (s *Scratch) list(r int32, in []float32) {
	base := int(r) * s.listCap
	act, unit := s.act[base:base+len(in)], s.unit[base:base+len(in)]
	// Every entry is written and only a nonzero one kept: about half of a
	// row is zero, in no pattern a branch predictor could learn.
	n := 0
	for k, v := range in {
		act[n], unit[n] = v, int32(k)
		if v != 0 {
			n++
		}
	}
	s.nnz[r] = int32(n)
}

// listed returns row r's list.
func (s *Scratch) listed(r int32) ([]float32, []int32) {
	base := int(r) * s.listCap
	n := base + int(s.nnz[r])
	return s.act[base:n], s.unit[base:n]
}

// gather lists the projection phase's work in s: per output block, the rows
// that need it in ascending order, and one item per panel of the block over
// all of them. When the phase will fork, the items are sorted largest
// first; inline, order is moot.
func (p *Plan) gather(s *Scratch, needed [][]int32, fork bool) {
	for len(s.rowsOf) < len(p.proj) {
		s.rowsOf = append(s.rowsOf, nil)
	}
	rowsOf := s.rowsOf[:len(p.proj)]
	for b := range rowsOf {
		rowsOf[b] = rowsOf[b][:0]
	}
	for r, blocks := range needed {
		for _, b := range blocks {
			// A block listed twice for a row is computed once.
			if rows := rowsOf[b]; len(rows) == 0 || rows[len(rows)-1] != int32(r) {
				rowsOf[b] = append(rows, int32(r))
			}
		}
	}
	s.items = s.items[:0]
	for b, rows := range rowsOf {
		if len(rows) == 0 {
			continue
		}
		blk := &p.proj[b]
		for i := range blk.ps {
			pn := &blk.ps[i]
			s.items = append(s.items, projItem{blk: blk, pn: pn, rows: rows, macs: len(rows) * (pn.k + 1) * pn.width})
		}
	}
	if fork {
		slices.SortFunc(s.items, func(a, b projItem) int { return b.macs - a.macs })
	}
}

type phase int

const (
	trunkPhase phase = iota // item i: rows [i*rowBlock, (i+1)*rowBlock) through the trunk
	projPhase               // item i: s.items[i]
)

// runPhase executes a phase's n work items. Without fork (a batch smaller
// than one row block), or for a phase of one item, they run inline;
// otherwise one tensor.ParallelFor sizes the worker set, and each worker
// takes the next item from s.next until none are left (the ranges
// ParallelFor hands out are not used), so a worker that drew a cheap item
// moves on while another finishes a costly one.
func (p *Plan) runPhase(s *Scratch, ph phase, n int, fork bool) {
	if !fork || n < 2 {
		for i := 0; i < n; i++ {
			p.item(s, ph, i)
		}
		return
	}
	s.next.Store(0)
	tensor.ParallelFor(n, 1, func(int, int) {
		for i := int(s.next.Add(1) - 1); i < n; i = int(s.next.Add(1) - 1) {
			p.item(s, ph, i)
		}
	})
}

func (p *Plan) item(s *Scratch, ph phase, i int) {
	if ph == projPhase {
		it := &s.items[i]
		for _, r := range it.rows {
			act, unit := s.listed(r)
			it.blk.panelRow(it.pn, act, unit, it.blk.panelCols(it.pn, s.logits.Row(int(r))[it.blk.col:]))
		}
		return
	}
	lo := i * rowBlock
	rows := s.seq[lo:min(lo+rowBlock, s.x.Rows)]
	h := s.x
	for _, l := range p.trunk {
		h = l.forward(s, h, rows)
	}
	for _, r := range rows {
		s.list(r, h.Row(int(r)))
	}
}
