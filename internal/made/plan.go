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
// most its cut); entries outside a unit's span are zero.
//
// A pass reads a layer input through unit lists, one per row group: the
// ascending units at which some row of the group has a nonzero activation
// (tensor.Nonzeros lists a row's own and sets its bitmask; a group's list
// is its rows' masks ORed and walked with bits.TrailingZeros64). A lone row
// is a group of one, with its own list. A group has tensor.PanelRows rows
// on an f32 plan (4 on avx512, where the group kernel loads each panel row
// once for four rows, 1 elsewhere) and 1 on an int8 plan. The trunk cuts
// the rows of each row block into runs of that many, the projection the
// rows that need an output block, in order; each whole run is one group and
// each row of a shorter last run a lone group, whatever the rows' values.
// A panel reads the prefix of a list below its K_p: tensor.AxpyPanel (a
// lone row) or tensor.AxpyPanelRows (a group) adds each listed unit's panel
// row, times each row's activation read from its dense input row, into a
// 64-column strip of the destination held in registers, so the destination
// is loaded and stored once per panel, not once per term.
//
// Forward runs a batch in two phases. The trunk phase takes blocks of
// rowBlock rows through every trunk layer, each panel serving every row of
// the block before the next panel is loaded; bias, ReLU and the residual add
// follow per block. The projection phase has one work item per (output
// block, panel), over the groups of every row of the batch that needs the
// block, so each slab panel is loaded once per pass; its groups are built
// serially between the phases. Each phase is one ParallelFor on the pass's
// worker set, whose workers take work items, largest first, from an atomic
// counter; a batch smaller than one row block runs inline, with no fork and
// no allocation.
//
// Every output element starts at +0, adds its terms in ascending input order
// (skipping zero activations), then adds its bias: exactly the additions, in
// exactly the order, of computing its row alone. A panel also adds a product
// for every listed unit below K_p whose span misses the element, and, in a
// group, for every listed unit where the element's own row has a ±0
// activation; its weight entry or its activation is ±0, so with finite
// weights and activations the product is ±0.
// The destination starts at +0 and never becomes −0 (x + (−x) rounds to +0,
// and no sum of finite nonzero terms underflows to zero), and adding ±0 to a
// value other than −0 returns it unchanged; so the padded terms change
// nothing, and each logit is bitwise the sum of its span terms.
// Results are therefore bitwise independent of batch composition, row-block
// boundaries, row groups, panel layout, worker count and kernel tier. They
// match the generic layer stack up to floating-point summation order (the
// degree sort changes the order in which a logit's contributions are
// added). A Plan is immutable after NewPlan and does not see later
// training; compile a new one. A pass writes only its Scratch, so Run on
// distinct scratches may run concurrently; Forward runs on a scratch the
// plan keeps, so its callers serialize.
//
// PlanConfig{Quantize: true} builds the plan with int8 weights instead of
// float32: every input unit's row of a packed layer (and of each output
// block) is quantized to symmetric int8 codes plus one float32 scale
// (tensor.QuantizeI8S), the codes take the f32 panel layout, and Forward
// runs tensor.AxpyPanelI8 on lone rows, which folds the activation×scale
// product into each term's alpha. Weight memory shrinks close to 4x and the
// kernel streams a quarter of the bytes; results are an approximation of
// the f32 plan (core.TestQuantizedPlanAccuracyAndSize bounds the q-error
// delta), but remain deterministic and batch-composition independent.
package made

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// rowBlock is how many rows share one load of a trunk panel: the trunk
// phase's row block.
const rowBlock = 8

// groupRows is the rows per union group of an f32 pass: the active tier's
// tensor.PanelRows. Tests replace it to run groups on one-row tiers too.
var groupRows = tensor.PanelRows

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
// projection's work lists and the row groups' unit lists. The zero value is
// ready to use; buffers grow to the largest batch run on it.
type Scratch struct {
	x, h   *tensor.Matrix  // the pass's input and the trunk's output
	outs   []tensor.Matrix // per trunk stage with an output buffer, in compile order
	logits tensor.Matrix
	seq    []int32      // 0, 1, 2, ...: the trunk's row blocks slice it
	rowsOf [][]int32    // per output block: the rows that need it, ascending
	items  []projItem   // the projection phase's work, see gather
	next   atomic.Int64 // the next work item of a forked phase

	g int // rows per union group: groupRows() on an f32 plan, else 1

	// Per row r, from r*words: the bits of the row's nonzero entries of the
	// layer input being read, when r may share a union list.
	mask  []uint64
	words int
	// Per row r, from r*listCap: the unit list of the group r leads, or of
	// r alone. The trunk reuses it layer by layer; after the trunk it holds
	// each row's own list of the trunk output.
	unit    []int32
	listCap int
	// The trunk's groups: a row block starting at row lo keeps its groups of
	// the current layer input in groups[lo:lo+len(block)]; after the trunk,
	// groups[r] is row r alone with its own list.
	groups []group
	// The projection's groups, output block after output block, and the
	// union lists they share (see gather).
	projGroups []group
	projUnits  []int32
}

// group is rows that share one unit list: ascending, the units below which
// some row has a nonzero activation of the layer input. A lone row's list
// is its own nonzero units; a union group's (tensor.PanelRows rows) is the
// union of its rows', and a row adds a ±0 product for each union unit where
// its own activation is ±0 (see the package comment).
type group struct {
	rows  []int32
	units []int32
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
	k     int // one past the last unit with a nonzero weight in any panel
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
	size := 0
	for i := range pk.ps {
		pk.ps[i].off = size
		size += pk.ps[i].k * pk.ps[i].width
		pk.k = max(pk.k, pk.ps[i].k)
	}
	var codes []int8
	if quant {
		pk.wq, pk.scale, codes = make([]int8, size), make([]float32, pk.k), make([]int8, width)
	} else {
		pk.w = make([]float32, size)
	}
	for u := 0; u < pk.k; u++ {
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

// panelGroup sets panel pn's columns of g's rows of dst, from column col:
// from +0, each row's activations in `in` at g's units below pn.k times
// those units' weights, in list order, then the bias. g's list holds the
// units of the rows' nonzero activations in ascending order, so every
// element adds exactly the terms its span reaches, in ascending order, plus
// ±0 products for units whose span misses it or where its row's activation
// is ±0; those leave it unchanged (see the package comment).
func (pk *panels) panelGroup(pn *panel, g group, in, dst *tensor.Matrix, col int) {
	n, _ := slices.BinarySearch(g.units, int32(pn.k))
	lo, width := col+pn.col, min(pn.width, pk.width-pn.col)
	for _, r := range g.rows {
		clear(dst.Row(int(r))[lo : lo+width])
	}
	switch {
	case pk.wq != nil: // a lone row: int8 plans share no lists
		r := int(g.rows[0])
		tensor.AxpyPanelI8(dst.Row(r)[lo:lo+width], in.Row(r), g.units[:n], pk.scale, pk.wq[pn.off:pn.off+pn.k*pn.width], pn.width)
	case len(g.rows) == 1:
		r := int(g.rows[0])
		tensor.AxpyPanel(dst.Row(r)[lo:lo+width], in.Row(r), g.units[:n], pk.w[pn.off:pn.off+pn.k*pn.width], pn.width)
	default:
		tensor.AxpyPanelRows(dst.Data[lo:], dst.Cols, in.Data, in.Cols, g.rows, width, g.units[:n], pk.w[pn.off:pn.off+pn.k*pn.width], pn.width)
	}
	if pk.bias != nil {
		bias := pk.bias[pn.col : pn.col+width]
		for _, r := range g.rows {
			y := dst.Row(int(r))[lo : lo+width]
			for j, bv := range bias {
				y[j] += bv
			}
		}
	}
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

// forward groups the rows by their nonzero inputs, then runs panel by
// panel, each panel serving every group before the next is loaded.
func (p *packedLinear) forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	out := &s.outs[p.buf]
	groups := s.group(rows, x)
	for i := range p.ps {
		for _, g := range groups {
			p.panelGroup(&p.ps[i], g, x, out, 0)
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
// output block, for every group of rows that needs the block.
type projItem struct {
	blk    *outBlock
	pn     *panel
	groups []group
	macs   int // the item's size, for largest-first scheduling
}

// Forward is Run on the scratch the plan keeps and the default worker set:
// the result is valid until the next Forward, and Forward's callers
// serialize.
func (p *Plan) Forward(x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	return p.Run(tensor.Default(), &p.held, x, needed)
}

// Run runs the plan on a batch, writing every buffer of the pass in s.
// needed[r] lists the output blocks to compute for row r, ascending;
// segments of blocks not requested hold unspecified values. The returned
// matrix is owned by s and valid until s runs another pass.
//
// The pass is two phases (see the package comment): the trunk in blocks of
// rowBlock rows, each packed panel serving every row group of the block;
// then one item per panel of each needed output block, serving every group
// of the rows that need the block, so each slab panel is loaded once per
// pass. Each phase is at most one fork; a batch smaller than one row block
// runs inline and, once s has grown to the batch, without allocating. Every
// logit keeps the arithmetic of its row computed alone, so results are
// bitwise independent of batch composition. A phase that forks splits across
// w.
func (p *Plan) Run(w *tensor.Workers, s *Scratch, x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
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
	s.g = 1
	if !p.quantized {
		s.g = groupRows()
	}
	// A list holds units of one layer input: the pass input's or a stage's.
	s.listCap = x.Cols
	for _, o := range s.outs[:p.nout] {
		s.listCap = max(s.listCap, o.Cols)
	}
	s.words = (s.listCap + 63) / 64
	if n := x.Rows * s.listCap; len(s.unit) < n {
		s.unit = make([]int32, n)
	}
	if n := x.Rows * s.words; len(s.mask) < n {
		s.mask = make([]uint64, n)
	}
	if len(s.groups) < x.Rows {
		s.groups = make([]group, x.Rows)
	}
	fork := x.Rows >= rowBlock
	p.runPhase(w, s, trunkPhase, (x.Rows+rowBlock-1)/rowBlock, fork)
	p.gather(s, needed[:x.Rows], fork)
	p.runPhase(w, s, projPhase, len(s.items), fork)
	s.x, s.h = nil, nil
	return &s.logits
}

// own lists row r's nonzero entries of in, a layer input row: their units,
// ascending, from s.unit[r*listCap], returned as r's own list. With marks
// it also sets r's mask to them.
func (s *Scratch) own(r int32, in []float32, marks bool) []int32 {
	var mask []uint64
	if marks {
		mask = s.mask[int(r)*s.words:]
	}
	return tensor.Nonzeros(s.unit[int(r)*s.listCap:], mask, in)
}

// union writes the units below lim that are nonzero in some row of rows to
// dst, ascending, and returns them.
func (s *Scratch) union(rows []int32, lim int, dst []int32) []int32 {
	n := 0
	for w := 0; w*64 < lim; w++ {
		var or uint64
		for _, r := range rows {
			or |= s.mask[int(r)*s.words+w]
		}
		for or &= ^uint64(0) >> max(0, w*64+64-lim); or != 0; or &= or - 1 {
			dst[n] = int32(w*64 + bits.TrailingZeros64(or))
			n++
		}
	}
	return dst[:n]
}

// group groups rows, one trunk row block, by their nonzero entries of in, a
// layer input: each whole run of s.g rows is one group, its union list in
// s.unit from its first row, and the rows of a shorter last run are lone
// groups. The groups go to s.groups from the block's first row.
func (s *Scratch) group(rows []int32, in *tensor.Matrix) []group {
	lo, marks := int(rows[0]), s.g > 1 && len(rows) >= s.g
	groups := s.groups[lo : lo+len(rows)]
	for i, r := range rows {
		groups[i] = group{rows[i : i+1], s.own(r, in.Row(int(r)), marks)}
	}
	n := 0
	for i := 0; i < len(rows); i += s.g {
		run := rows[i:min(i+s.g, len(rows))]
		if s.g > 1 && len(run) == s.g {
			groups[n] = group{run, s.union(run, in.Cols, s.unit[int(run[0])*s.listCap:])}
			n++
		} else {
			n += copy(groups[n:], groups[i:i+len(run)])
		}
	}
	return groups[:n]
}

// gather lists the projection phase's work in s. Per output block: the rows
// that need it in ascending order, cut into runs of s.g rows; a whole run is
// one group, its union of the units below the block's last row appended to
// s.projUnits, and each row of a shorter last run is its own lone group from
// the trunk's end. Then one item per panel of the block over all of its
// groups. When the phase will fork, the items are sorted largest first;
// inline, order is moot. It runs between the phases, serially.
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
	// Every row of a block is in at most one of its groups, so s.projGroups
	// never grows inside the loop. A union list is appended whole to
	// s.projUnits; when that grows, the lists already cut from it keep the
	// old array, which nothing writes.
	total := 0
	for _, rows := range rowsOf {
		total += len(rows)
	}
	s.projGroups = slices.Grow(s.projGroups[:0], total)
	s.projUnits = s.projUnits[:0]
	s.items = s.items[:0]
	for b, rows := range rowsOf {
		blk, at := &p.proj[b], len(s.projGroups)
		for i := 0; i < len(rows); i += s.g {
			run := rows[i:min(i+s.g, len(rows))]
			if s.g > 1 && len(run) == s.g {
				u := len(s.projUnits)
				s.projUnits = slices.Grow(s.projUnits, blk.k)
				units := s.union(run, blk.k, s.projUnits[u:u+blk.k])
				s.projUnits = s.projUnits[:u+len(units)]
				s.projGroups = append(s.projGroups, group{run, units})
				continue
			}
			for _, r := range run {
				s.projGroups = append(s.projGroups, s.groups[r])
			}
		}
		if len(rows) == 0 {
			continue
		}
		groups := s.projGroups[at:]
		for i := range blk.ps {
			pn := &blk.ps[i]
			s.items = append(s.items, projItem{blk: blk, pn: pn, groups: groups, macs: len(rows) * (pn.k + 1) * pn.width})
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
// otherwise one w.ParallelFor sizes the worker set, and each worker
// takes the next item from s.next until none are left (the ranges
// ParallelFor hands out are not used), so a worker that drew a cheap item
// moves on while another finishes a costly one.
func (p *Plan) runPhase(w *tensor.Workers, s *Scratch, ph phase, n int, fork bool) {
	if !fork || n < 2 {
		for i := 0; i < n; i++ {
			p.item(s, ph, i)
		}
		return
	}
	s.next.Store(0)
	w.ParallelFor(n, 1, func(int, int) {
		for i := int(s.next.Add(1) - 1); i < n; i = int(s.next.Add(1) - 1) {
			p.item(s, ph, i)
		}
	})
}

func (p *Plan) item(s *Scratch, ph phase, i int) {
	if ph == projPhase {
		it := &s.items[i]
		for _, g := range it.groups {
			it.blk.panelGroup(it.pn, g, s.h, &s.logits, it.blk.col)
		}
		return
	}
	lo := i * rowBlock
	rows := s.seq[lo:min(lo+rowBlock, s.x.Rows)]
	h := s.x
	for _, l := range p.trunk {
		h = l.forward(s, h, rows)
	}
	// Each row's own list of the trunk output, for the projection: its lone
	// group, and its mask for the projection's unions, if a batch this big
	// can have any.
	for _, r := range rows {
		s.groups[r] = group{s.seq[r : r+1], s.own(r, h.Row(int(r)), s.g > 1 && s.x.Rows >= s.g)}
	}
}
