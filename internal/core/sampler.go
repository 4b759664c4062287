package core

import (
	"math/rand"

	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// SamplerConfig controls virtual-tuple generation (Algorithm 1).
type SamplerConfig struct {
	// Mu is the expand coefficient: each tuple is replicated Mu times per
	// step, drawing Mu independent virtual tuples, which accelerates
	// convergence without enlarging the effective batch diversity cost
	// (the paper uses 4).
	Mu int
	// WildcardProb is the per-column probability of replacing the sampled
	// predicate with a wildcard so the model also learns the distributions
	// conditioned on partially-constrained prefixes.
	WildcardProb float64
	// MaxPredsPerCol > 1 samples a uniform 1..MaxPredsPerCol predicates per
	// constrained column (the MPSN training regime).
	MaxPredsPerCol int
	Seed           int64

	// Importance, when non-nil, biases predicate sampling toward the
	// operator/value distribution of a historical workload with probability
	// ImportanceProb per predicate — the paper's suggested refinement of
	// uniform sampling for deployments with strong query time-locality.
	Importance     *ImportanceStats
	ImportanceProb float64
}

// ImportanceStats is the per-column empirical (op, value-code) distribution
// of a historical workload, used to bias Algorithm 1's uniform sampling.
type ImportanceStats struct {
	// perCol[c] lists the (op, code) pairs observed on column c.
	perCol [][]ColPred
}

// BuildImportanceStats collects per-column predicate frequencies from a
// historical workload.
func BuildImportanceStats(ncols int, history []workload.Query) *ImportanceStats {
	st := &ImportanceStats{perCol: make([][]ColPred, ncols)}
	for _, q := range history {
		for _, p := range q.Preds {
			if p.Col >= 0 && p.Col < ncols {
				st.perCol[p.Col] = append(st.perCol[p.Col], ColPred{Op: p.Op, Code: p.Code})
			}
		}
	}
	return st
}

// draw returns a historical predicate on col satisfied by x, trying a few
// rejection rounds; ok is false when none is found.
func (st *ImportanceStats) draw(rng *rand.Rand, col int, x int32) (ColPred, bool) {
	pool := st.perCol[col]
	if len(pool) == 0 {
		return ColPred{}, false
	}
	for try := 0; try < 8; try++ {
		p := pool[rng.Intn(len(pool))]
		wp := workload.Predicate{Col: col, Op: p.Op, Code: p.Code}
		if wp.Matches(x) {
			return p, true
		}
	}
	return ColPred{}, false
}

// sampleSpecs implements the paper's parallel vectorized sampling
// (Algorithm 1) over pre-filled label tuples: for every tuple and every
// column it draws a predicate operator uniformly via the slice trick and a
// predicate value uniformly from the operator's satisfying range, so the
// label tuple satisfies every sampled predicate — i.e. the virtual tuple x'
// is drawn from the virtual table T' with the original tuple x as its label.
//
// Columns are sampled in parallel (one worker per column chunk), each
// with an independent deterministic RNG, mirroring the paper's
// thread-per-column C++ extension. Training reuses specs across steps, so
// each specs[k] must already hold one (possibly truncated) predicate list
// per column — the lists are overwritten, not appended to. The column chunks
// run on w. rngs holds one RNG slot per column: a nil slot gets a new
// generator, a filled one is reseeded, which restarts it exactly where a
// new one would start, so a training loop keeps its
// generators from step to step.
func sampleSpecs(w *tensor.Workers, t *relation.Table, specs []Spec, labels [][]int32, cfg SamplerConfig, epoch int, rngs []*rand.Rand) {
	maxP := max(cfg.MaxPredsPerCol, 1)
	w.ParallelFor(t.NumCols(), 1, func(lo, hi int) {
		for col := lo; col < hi; col++ {
			seed := cfg.Seed ^ int64(epoch)*1000003 ^ int64(col)*7919
			if rngs[col] == nil {
				rngs[col] = rand.New(rand.NewSource(seed))
			} else {
				rngs[col].Seed(seed)
			}
			sampleColumn(rngs[col], t, specs, labels, col, cfg, maxP)
		}
	})
}

// sampleColumn fills one column of every virtual tuple. The operator is
// assigned with the slice trick: the batch is divided into NumOps contiguous
// slices, each slice getting one operator from a per-column shuffled order —
// the vectorized equivalent of uniform operator assignment.
func sampleColumn(rng *rand.Rand, t *relation.Table, specs []Spec, labels [][]int32, col int, cfg SamplerConfig, maxP int) {
	ndv := int32(t.Cols[col].NumDistinct())
	b := len(specs)
	// rng.Perm's draws, into an array instead of a new slice.
	var opOrder [workload.NumOps]int
	for i := range opOrder {
		j := rng.Intn(i + 1)
		opOrder[i] = opOrder[j]
		opOrder[j] = i
	}
	for k := 0; k < b; k++ {
		specs[k][col] = specs[k][col][:0] // reused spec buffers carry stale lists
		if rng.Float64() < cfg.WildcardProb {
			continue // wildcard: empty predicate list
		}
		x := labels[k][col]
		npreds := 1
		if maxP > 1 {
			npreds = 1 + rng.Intn(maxP)
		}
		for p := 0; p < npreds; p++ {
			if cfg.Importance != nil && rng.Float64() < cfg.ImportanceProb {
				if hp, ok := cfg.Importance.draw(rng, col, x); ok {
					specs[k][col] = append(specs[k][col], hp)
					continue
				}
			}
			var op workload.Op
			if p == 0 {
				// Slice trick for the first predicate.
				op = workload.Op(opOrder[k*int(workload.NumOps)/b])
			} else {
				op = workload.Op(rng.Intn(int(workload.NumOps)))
			}
			code, ok := samplePredValue(rng, op, x, ndv)
			if !ok {
				continue // empty satisfying range: leave this predicate out
			}
			specs[k][col] = append(specs[k][col], ColPred{Op: op, Code: code})
		}
	}
}

// samplePredValue draws a predicate value uniformly from the codes that keep
// x satisfying (col op value); ok is false when that range is empty (e.g.
// "col > v" with x at the domain minimum).
func samplePredValue(rng *rand.Rand, op workload.Op, x, ndv int32) (int32, bool) {
	var lo, hi int32
	switch op {
	case workload.OpEq:
		return x, true
	case workload.OpGt: // x > v  =>  v in [0, x-1]
		lo, hi = 0, x-1
	case workload.OpLt: // x < v  =>  v in [x+1, ndv-1]
		lo, hi = x+1, ndv-1
	case workload.OpGe: // x >= v =>  v in [0, x]
		lo, hi = 0, x
	case workload.OpLe: // x <= v =>  v in [x, ndv-1]
		lo, hi = x, ndv-1
	default:
		panic("core: unknown op")
	}
	if lo > hi {
		return 0, false
	}
	return lo + rng.Int31n(hi-lo+1), true
}
