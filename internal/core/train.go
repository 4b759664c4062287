package core

import (
	"math/rand"
	"time"

	"duet/internal/nn"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// TrainConfig controls hybrid training (Algorithm 2).
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64

	// Sampler settings.
	Mu             int
	WildcardProb   float64
	MaxPredsPerCol int
	// ImportanceProb > 0 biases Algorithm 1's predicate sampling toward the
	// historical distribution of Workload (paper, Section IV-C: replace
	// uniform sampling with importance sampling under query time-locality).
	ImportanceProb float64

	// Hybrid training: Lambda scales the smoothed Q-Error query loss;
	// Workload supplies the (historical or generated) training queries.
	// Lambda == 0 or an empty workload trains the data-only DuetD variant.
	Lambda     float64
	Workload   []workload.LabeledQuery
	QueryBatch int // queries per step; defaults to min(BatchSize, 64)

	// Source supplies the training tuples; every step draws its batch from
	// it into pooled buffers. nil means the model table's rows, reshuffled
	// every epoch. A non-nil source (e.g. a relation.JoinSampler over a join
	// graph) bounds training memory by the batch size, not the table or join
	// size; the model's table then only supplies the column dictionaries
	// (e.g. a JoinSampler.SampleTable snapshot). SourceRows is the number of
	// tuples one epoch draws from a non-nil Source (default: the table's row
	// count).
	Source     TupleSource
	SourceRows int

	ClipNorm float64 // global gradient-norm clip; 0 disables
	Seed     int64

	// OnEpoch, when set, is invoked after each epoch; returning false stops
	// training early (used for convergence traces and early stopping).
	OnEpoch func(epoch int, s EpochStats) bool
	// OnStep, when set, receives per-step losses (used for the Figure 3
	// loss-convergence trace).
	OnStep func(step int, s StepStats)
}

// DefaultTrainConfig returns the paper's defaults: µ=4, λ=0.1, Adam 1e-3.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       20,
		BatchSize:    256,
		LR:           1e-3,
		Mu:           4,
		WildcardProb: 0.25,
		Lambda:       0.1,
		ClipNorm:     16,
		Seed:         42,
	}
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch        int
	DataLoss     float64 // mean cross-entropy (nats/tuple)
	QueryLoss    float64 // mean log2(QErr+1), unscaled by lambda
	RawQErr      float64 // mean raw Q-Error on training queries
	Tuples       int     // source tuples consumed
	TuplesPerSec float64
	Duration     time.Duration
}

// StepStats carries per-step losses for convergence plots.
type StepStats struct {
	DataLoss  float64
	QueryLoss float64 // log2(QErr+1), unscaled
	RawQErr   float64
}

// Train runs Algorithm 2: per step it (1) draws a batch of tuples from
// cfg.Source, expands them into virtual tuples with Algorithm 1 and computes
// the unsupervised cross-entropy L_data, (2) draws a batch of training
// queries, estimates them directly (no sampling) and computes the supervised
// L_query = log2(QErr+1), then (3) descends on L = L_data + λ·L_query. It
// returns per-epoch statistics. Each epoch ends by publishing a plan of its
// weights, before OnEpoch, so OnEpoch's estimates see them. Every step runs on
// the default worker set.
func Train(m *Model, cfg TrainConfig) []EpochStats { return train(tensor.Default(), m, cfg) }

// train is Train with every step's forks on w.
func train(w *tensor.Workers, m *Model, cfg TrainConfig) []EpochStats {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		panic("core: Train needs positive Epochs and BatchSize")
	}
	qb := cfg.QueryBatch
	if qb <= 0 {
		qb = min(cfg.BatchSize, 64)
	}
	defer m.net.Net.ReleaseBuffers()
	hybrid := cfg.Lambda > 0 && len(cfg.Workload) > 0
	ts := &trainState{w: w, opt: nn.NewAdam(cfg.LR)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler := SamplerConfig{
		Mu: cfg.Mu, WildcardProb: cfg.WildcardProb,
		MaxPredsPerCol: cfg.MaxPredsPerCol, Seed: cfg.Seed + 1,
	}
	if cfg.ImportanceProb > 0 && len(cfg.Workload) > 0 {
		qs := make([]workload.Query, len(cfg.Workload))
		for i, lq := range cfg.Workload {
			qs[i] = lq.Query
		}
		sampler.Importance = BuildImportanceStats(m.table.NumCols(), qs)
		sampler.ImportanceProb = cfg.ImportanceProb
	}
	nRows := m.table.NumRows()
	src := cfg.Source
	var rows *tableRows
	if src == nil {
		rows = &tableRows{t: m.table}
		src = rows
	} else if cfg.SourceRows > 0 {
		nRows = cfg.SourceRows
	}
	batch := &streamBatch{ncols: m.table.NumCols()}
	var history []EpochStats
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		if rows != nil {
			rows.perm = rng.Perm(nRows)
		}
		var dataLossSum, qLossSum, rawQSum float64
		var steps int
		for off := 0; off < nRows; off += cfg.BatchSize {
			end := min(off+cfg.BatchSize, nRows)
			specs, labels := batch.next(w, m, src, end-off, cfg.Mu, sampler, epoch)
			var queries []workload.LabeledQuery
			if hybrid {
				queries = make([]workload.LabeledQuery, qb)
				for i := range queries {
					queries[i] = cfg.Workload[rng.Intn(len(cfg.Workload))]
				}
			}
			dataLoss, qLoss, rawQ := m.step(ts, specs, labels, queries, cfg.Lambda, cfg.ClipNorm)
			dataLossSum += dataLoss
			qLossSum += qLoss
			rawQSum += rawQ
			steps++
			step++
			if cfg.OnStep != nil {
				cfg.OnStep(step, StepStats{DataLoss: dataLoss, QueryLoss: qLoss, RawQErr: rawQ})
			}
		}
		dur := time.Since(start)
		s := EpochStats{
			Epoch:    epoch,
			DataLoss: dataLossSum / float64(steps),
			Tuples:   nRows,
			Duration: dur,
		}
		if hybrid {
			s.QueryLoss = qLossSum / float64(steps)
			s.RawQErr = rawQSum / float64(steps)
		}
		if sec := dur.Seconds(); sec > 0 {
			s.TuplesPerSec = float64(nRows) / sec
		}
		history = append(history, s)
		m.publish()
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, s) {
			break
		}
	}
	return history
}

// trainState is what one Train or FineTune call carries from step to step:
// the worker set every stage of a step forks on, the optimizer and the step's
// reused buffers. Nothing of it outlives the call.
type trainState struct {
	w         *tensor.Workers
	opt       *nn.Adam
	in        tensor.Matrix // network input of the data pass, then of the query pass
	dLogits   tensor.Matrix // logit gradient of the data pass, then of the query pass
	lossTerms []float64     // nn.SoftmaxCE's per-(row, block) loss terms
}

// step is Algorithm 2's descent step, shared by Train and FineTune: zero the
// gradients, accumulate L_data over the virtual tuples and λ·L_query over the
// queries (either may be empty), clip and update.
func (m *Model) step(ts *trainState, specs []Spec, labels [][]int32, queries []workload.LabeledQuery, lambda, clipNorm float64) (dataLoss, qLoss, rawQ float64) {
	nn.ZeroGrads(m.params)
	if len(specs) > 0 {
		logits := m.forward(ts.w, specs, &ts.in)
		dLogits := ts.zeroedGrad(logits)
		dataLoss = nn.SoftmaxCE(ts.w, logits, m.net.Out, labels, dLogits, &ts.lossTerms)
		m.backward(ts.w, specs, dLogits)
	}
	if len(queries) > 0 {
		qLoss, rawQ = m.queryLossBackward(ts, queries, lambda)
	}
	if clipNorm > 0 {
		nn.ClipGradNorm(m.params, clipNorm)
	}
	ts.opt.Step(ts.w, m.params)
	return dataLoss, qLoss, rawQ
}

// zeroedGrad returns the logit-gradient buffer shaped like logits and
// cleared: both loss passes accumulate into it with +=. One buffer serves the
// data pass and then the query pass of a step (backward is done with it when
// it returns), so the step's largest matrix — 8.5 MB on the DMV model — is
// allocated once per training call, not twice per step. The clear is split
// by rows across the step's workers.
func (ts *trainState) zeroedGrad(logits *tensor.Matrix) *tensor.Matrix {
	d := ts.dLogits.Resize(logits.Rows, logits.Cols)
	ts.w.ParallelFor(d.Rows, tensor.RowGrain(d.Cols), func(lo, hi int) { clear(d.Data[lo*d.Cols : hi*d.Cols]) })
	return d
}

// queryLossBackward runs the differentiable estimation path on a query
// batch, accumulates λ-scaled gradients into the model, and returns the mean
// smoothed query loss and mean raw Q-Error. The gradient of the selectivity
// product with respect to column i's logits is
//
//	d est / d z_iv = est/f_i · p_iv·(1[v∈I_i] − f_i)
//
// where f_i is column i's masked probability mass — the exact derivative of
// Algorithm 3's masked sum-product, with est/f_i computed as a leave-one-out
// product so near-zero masses stay numerically safe.
func (m *Model) queryLossBackward(ts *trainState, batch []workload.LabeledQuery, lambda float64) (qLoss, rawQ float64) {
	specs := make([]Spec, len(batch))
	for i, lq := range batch {
		specs[i] = m.SpecFromQuery(lq.Query)
	}
	logits := m.forward(ts.w, specs, &ts.in)
	dLogits := ts.zeroedGrad(logits)
	total := float64(m.table.NumRows())
	scale := lambda / float64(len(batch))
	for b, lq := range batch {
		ivs := lq.Query.ColumnIntervals(m.table)
		cols := lq.Query.Columns()
		if len(cols) == 0 {
			continue
		}
		row := logits.Row(b)
		fs := make([]float64, len(cols))
		probsPer := make([][]float32, len(cols))
		empty := false
		for k, c := range cols {
			iv := ivs[c]
			if iv.Empty() {
				empty = true
				break
			}
			seg := m.net.Out.Slice(row, c)
			probsPer[k] = make([]float32, len(seg))
			fs[k] = max(nn.IntervalMass(probsPer[k], seg, iv.Lo, iv.Hi), 1e-12)
		}
		if empty {
			continue // contradictory query: estimate is exactly 0, no signal
		}
		// Leave-one-out products: loo[k] = Π_{j≠k} f_j.
		prod := 1.0
		for _, f := range fs {
			prod *= f
		}
		est := total * prod
		loss, dEst := nn.QErrorLossGrad(est, float64(lq.Card), 1)
		qLoss += loss
		rawQ += workload.QError(est, float64(lq.Card))
		dEst *= scale
		prefix := make([]float64, len(fs)+1)
		prefix[0] = 1
		for k, f := range fs {
			prefix[k+1] = prefix[k] * f
		}
		suffix := 1.0
		dRow := dLogits.Row(b)
		for k := len(cols) - 1; k >= 0; k-- {
			c := cols[k]
			loo := prefix[k] * suffix
			suffix *= fs[k]
			dF := dEst * total * loo
			iv := ivs[c]
			probs := probsPer[k]
			dSeg := m.net.Out.Slice(dRow, c)
			f := float32(fs[k])
			for v, p := range probs {
				in := float32(0)
				if int32(v) >= iv.Lo && int32(v) <= iv.Hi {
					in = 1
				}
				dSeg[v] += float32(dF) * p * (in - f)
			}
		}
	}
	m.backward(ts.w, specs, dLogits)
	n := float64(len(batch))
	return qLoss / n, rawQ / n
}
