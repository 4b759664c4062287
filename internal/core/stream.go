package core

import (
	"math/rand"

	"duet/internal/relation"
	"duet/internal/tensor"
)

// TupleSource supplies training tuples as dictionary codes laid out like the
// model table's columns: by default the table's rows, while
// relation.JoinSampler draws full-outer-join rows on demand, so a join
// view's training memory is bounded by the batch buffers and the sample
// budget instead of the join cardinality. Sources are called from the
// training goroutine only.
type TupleSource interface {
	// DrawTuples fills each dst[i] (len = the table's column count) with one
	// tuple's codes.
	DrawTuples(dst [][]int32)
}

// tableRows is the default TupleSource: the table's rows in the order of the
// epoch's permutation, which Train sets before the epoch's first draw.
type tableRows struct {
	t    *relation.Table
	perm []int // rows not yet drawn this epoch
}

func (s *tableRows) DrawTuples(dst [][]int32) {
	for _, d := range dst {
		s.t.RowCodes(s.perm[0], d)
		s.perm = s.perm[1:]
	}
}

// streamBatch owns the reusable buffers every training step builds its
// virtual tuples in: one flat label slab (re-sliced per step), the per-tuple
// views into it, the draw destinations handed to the source, the spec lists
// and the sampler's per-column generators. Every spec's column lists are
// carved from one predicate slab, each with room for the sampler's most
// predicates per column, so appending to one never allocates or reaches the
// next. After the first step at full batch size, steps stop allocating
// label or spec storage — the pooled-buffer analogue of what the serving
// engine does for inference scratch.
type streamBatch struct {
	ncols  int
	slab   []int32
	labels [][]int32
	draw   [][]int32
	specs  []Spec
	maxP   int // room in each spec list
	rngs   []*rand.Rand
}

// next implements Algorithm 1 for one step: it draws `batch` tuples from src,
// replicates each mu times (Line 21 replicates the data batch), and samples
// the per-column predicate lists, returning views valid until the next call.
func (sb *streamBatch) next(w *tensor.Workers, m *Model, src TupleSource, batch, mu int, cfg SamplerConfig, epoch int) ([]Spec, [][]int32) {
	if mu < 1 {
		mu = 1
	}
	need := batch * mu
	if cap(sb.slab) < need*sb.ncols {
		sb.slab = make([]int32, need*sb.ncols)
		sb.labels = make([][]int32, 0, need)
	}
	sb.slab = sb.slab[:need*sb.ncols]
	sb.labels = sb.labels[:0]
	for k := 0; k < need; k++ {
		sb.labels = append(sb.labels, sb.slab[k*sb.ncols:(k+1)*sb.ncols])
	}
	// Draw each base tuple directly into its first replica's label slot...
	sb.draw = sb.draw[:0]
	for k := 0; k < batch; k++ {
		sb.draw = append(sb.draw, sb.labels[k*mu])
	}
	src.DrawTuples(sb.draw)
	// ...then copy it into the remaining mu-1 replicas.
	for k := 0; k < batch; k++ {
		for j := 1; j < mu; j++ {
			copy(sb.labels[k*mu+j], sb.labels[k*mu])
		}
	}
	if maxP := max(cfg.MaxPredsPerCol, 1); len(sb.specs) < need || sb.maxP != maxP {
		sb.carve(need, maxP)
	}
	if sb.rngs == nil {
		sb.rngs = make([]*rand.Rand, sb.ncols)
	}
	specs := sb.specs[:need]
	sampleSpecs(w, m.table, specs, sb.labels, cfg, epoch, sb.rngs)
	return specs, sb.labels
}

// carve lays out n specs, their column lists and maxP predicates per list
// in three allocations.
func (sb *streamBatch) carve(n, maxP int) {
	sb.maxP = maxP
	sb.specs = make([]Spec, n)
	lists := make([][]ColPred, n*sb.ncols)
	preds := make([]ColPred, n*sb.ncols*maxP)
	for i := range lists {
		lists[i] = preds[i*maxP : i*maxP : (i+1)*maxP]
	}
	for k := range sb.specs {
		sb.specs[k] = lists[k*sb.ncols : (k+1)*sb.ncols : (k+1)*sb.ncols]
	}
}
