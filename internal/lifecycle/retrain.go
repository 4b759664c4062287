package lifecycle

import (
	"fmt"
	"time"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/workload"
)

// run is the background worker: every CheckInterval — or immediately when a
// signal nudges it — it sweeps the managed models and schedules a retrain for
// each one whose policy tripped, respecting MinInterval per model and
// MaxConcurrent across models.
func (s *Supervisor) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.pol.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.poke:
		}
		s.sweep()
	}
}

// sweep schedules retrains for every tripped, idle, rate-eligible model.
func (s *Supervisor) sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, mg := range s.models {
		if mg.retraining || !s.trippedLocked(mg) {
			continue
		}
		// Rate limit: the policy's MinInterval between successful retrains
		// and, after a failure, an exponential backoff — a tripped signal
		// stays tripped across failed attempts (counters only reset on
		// success), so without backoff an unwritable model dir would loop
		// full trains every CheckInterval.
		wait := s.pol.MinInterval
		if b := failureBackoff(mg.consecFails); b > wait {
			wait = b
		}
		if wait > 0 && !mg.lastRetrain.IsZero() && time.Since(mg.lastRetrain) < wait {
			continue
		}
		select {
		case s.sem <- struct{}{}:
		default:
			return // concurrency budget exhausted; the next sweep retries
		}
		mg.retraining = true
		s.wg.Add(1)
		go s.retrain(mg)
	}
}

// retrain rebuilds one model off-line and installs it through the registry's
// drain-safe swap. It runs without the supervisor lock: ingest, feedback and
// serving continue throughout; rows ingested while it runs stay pending and
// fold into the next retrain.
func (s *Supervisor) retrain(mg *managed) {
	defer func() { <-s.sem; s.wg.Done() }()
	s.mu.Lock()
	backing := mg.backing
	feedback := mg.fb.records()
	version := mg.version + 1
	// Whether the data-side signal is (co-)responsible for this retrain: a
	// distribution that shifted among existing dictionary values keeps the
	// encodings compatible, but a feedback-only fine-tune would not learn it
	// — and resetting the drift counters afterwards would mask the signal
	// for good. Data drift therefore always forces the full-train path.
	p := s.pol
	dataTripped := mg.graph == nil && p.MaxColumnDrift > 0 &&
		mg.pending >= p.MinAppended && mg.maxDrift() > p.MaxColumnDrift
	s.mu.Unlock()

	st := RetrainStats{Model: mg.name, Version: version, Rows: backing.NumRows(), Feedback: len(feedback)}
	t0 := time.Now()
	m, kind, err := s.buildModel(mg, backing, feedback, version, dataTripped)
	st.TrainDuration = time.Since(t0)
	st.Kind = kind
	if dir := artifact.Dir(s.opt.Dir); err == nil && dir != "" {
		if st.Path, err = dir.Put(mg.name, version, m.Save); err == nil {
			dir.Prune(mg.name, s.pol.KeepVersions)
		}
	}
	if err == nil && mg.pack != "" {
		// Compact the mapped base + append tail into a fresh .duetcol and
		// rebind the new generation onto the reopened mapping, so the swap
		// below installs model and compacted table together.
		m, _, err = compactBacking(mg.pack, m, backing)
	}
	if err == nil {
		t1 := time.Now()
		err = s.reg.SwapModel(mg.name, m, registry.SwapOpts{Path: st.Path, Version: version})
		st.SwapLatency = time.Since(t1)
	}
	st.Err = err

	s.mu.Lock()
	mg.retraining = false
	mg.lastRetrain = time.Now()
	mg.lastKind = kind
	mg.lastErr = err
	if err != nil {
		mg.failures++
		mg.consecFails++
	} else {
		mg.consecFails = 0
		mg.retrains++
		if kind == KindFineTune {
			mg.fineTunes++
		} else {
			mg.fullTrains++
		}
		mg.version = version
		mg.lastSwap = st.SwapLatency
		mg.lastPath = st.Path
		// The new generation's snapshot is the table it trained on (for base
		// tables that is `backing`, which mg.backing extends copy-on-write,
		// so rows ingested mid-retrain are never lost). Drift accounting
		// restarts against the new snapshot — mid-retrain rows reproject onto
		// it — and the feedback window resets because its q-errors grade the
		// replaced generation.
		mg.table = m.Table()
		if mg.pack != "" && mg.backing == backing {
			// No rows arrived mid-retrain: rebase the live backing onto the
			// compacted mapping, dropping the append tail (and the last
			// lifecycle reference to the previous mapping's code arrays).
			mg.backing = mg.table
		}
		if mg.graph != nil {
			mg.backing = mg.table
		} else {
			mg.snap = snapshotHists(mg.table)
			mg.pend, mg.pending, mg.fresh = reprojectPending(mg.table, mg.backing)
		}
		mg.fb.reset()
	}
	s.mu.Unlock()
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	s.met.retrains.With(mg.name, string(kind), outcome).Inc()
	s.met.trainSec.With(mg.name).Observe(st.TrainDuration.Seconds())
	if err == nil {
		s.met.swapSec.With(mg.name).Observe(st.SwapLatency.Seconds())
	}
	s.logRetrain(st)
	if s.opt.OnRetrain != nil {
		s.opt.OnRetrain(st)
	}
}

// failureBackoff is the minimum delay before a model whose last retrain
// failed may retry: exponential in the consecutive failure count, capped at
// five minutes.
func failureBackoff(failures uint64) time.Duration {
	if failures == 0 {
		return 0
	}
	if failures > 9 {
		failures = 9
	}
	b := time.Second << (failures - 1)
	if b > 5*time.Minute {
		b = 5 * time.Minute
	}
	return b
}

// reprojectPending restarts drift accounting after a swap: rows the live
// backing table holds beyond the freshly trained snapshot (ingested while the
// retrain ran) are projected onto the new snapshot's dictionaries, so the
// next trip decision measures drift against the generation actually serving.
func reprojectPending(snapshot, live *relation.Table) (pend [][]float64, pending, fresh int) {
	pend = emptyCounts(snapshot)
	pending = live.NumRows() - snapshot.NumRows()
	for r := snapshot.NumRows(); r < live.NumRows(); r++ {
		for ci, c := range live.Cols {
			raw := c.ValueString(c.Codes.At(r))
			code, exact, err := snapshot.Cols[ci].ProjectValue(raw)
			if err != nil {
				continue
			}
			pend[ci][code]++
			if !exact {
				fresh++
			}
		}
	}
	return pend, pending, fresh
}

// buildModel produces the replacement generation: for base tables, a clone +
// fine-tune when the grown table kept the trained encodings, feedback exists
// to tune on, and the data-side drift signal is quiet (a feedback-only
// fine-tune cannot learn a shifted data distribution, so data drift forces
// the full path even when encodings held); otherwise a full train on the
// grown table (with the feedback as hybrid workload when the train config
// weights query loss). Join-graph views always rebuild in full from the
// registered base tables — materialized for exact views, streamed through a
// fresh JoinSampler for sampled ones.
func (s *Supervisor) buildModel(mg *managed, backing *relation.Table, feedback []fbRec, version int, dataTripped bool) (*core.Model, RetrainKind, error) {
	if mg.graph != nil {
		m, err := s.rebuildGraphView(mg, version)
		return m, KindFullTrain, err
	}
	lqs := labelFeedback(backing, feedback)
	if !dataTripped && len(lqs) > 0 {
		if clone, err := s.reg.CloneModelFor(mg.name, backing); err == nil {
			core.FineTune(clone, lqs, s.pol.FineTune)
			return clone, KindFineTune, nil
		}
	}
	return s.trainFresh(mg, backing, nil, lqs), KindFullTrain, nil
}

// rebuildGraphView re-materializes a join-graph view from its registered base
// tables and trains a fresh model over it. Sampled views draw a fresh budget
// sample (seeded with the version) and stream their training tuples
// (TrainConfig.Source), so rebuild memory stays O(base rows + budget) however
// large the join is.
func (s *Supervisor) rebuildGraphView(mg *managed, version int) (*core.Model, error) {
	view, sampler, err := mg.graph.Build(mg.name, s.reg.Table, int64(version))
	if err != nil {
		return nil, fmt.Errorf("lifecycle: rebuild %q: %w", mg.name, err)
	}
	return s.trainFresh(mg, view, sampler, nil), nil
}

// trainFresh is every full retrain: a new model over t, trained with the
// model's train config and the policy's epoch override. A non-nil sampler
// streams a sampled view's tuples (mg.graph.Sample per epoch); feedback
// becomes the hybrid workload when the config weights query loss.
func (s *Supervisor) trainFresh(mg *managed, t *relation.Table, sampler *relation.JoinSampler, feedback []workload.LabeledQuery) *core.Model {
	tc := mg.train
	if s.pol.TrainEpochs > 0 {
		tc.Epochs = s.pol.TrainEpochs
	}
	if sampler != nil {
		tc.Source, tc.SourceRows = sampler, mg.graph.Sample
	}
	if tc.Lambda > 0 && len(feedback) > 0 {
		tc.Workload = feedback
	}
	m := core.NewModel(t, mg.cfg)
	core.Train(m, tc)
	return m
}

// labelFeedback resolves feedback expressions against the grown table,
// producing the labeled workload a fine-tune (or hybrid retrain) consumes.
// Expressions that no longer parse — e.g. they qualify joined tables, or name
// a dropped column — are skipped rather than failing the retrain.
func labelFeedback(t *relation.Table, feedback []fbRec) []workload.LabeledQuery {
	var out []workload.LabeledQuery
	for _, r := range feedback {
		q, err := workload.ParseQuery(t, r.expr)
		if err != nil {
			continue
		}
		out = append(out, workload.LabeledQuery{Query: q, Card: r.card})
	}
	return out
}
