package lifecycle

import "duet/internal/obs"

// lcMetrics holds the supervisor's counters as obs instruments, detached
// when no registry is configured. The drift-signal levels (q-error
// quantiles, column drift, pending rows, backoff) are gauges refreshed by a
// scrape hook, so they read the same supervisor state the /v1/lifecycle JSON
// reports instead of a parallel copy.
type lcMetrics struct {
	ingested *obs.CounterVec
	feedback *obs.CounterVec
	retrains *obs.CounterVec // model, kind, outcome
	trainSec *obs.HistogramVec
	swapSec  *obs.HistogramVec

	pending    *obs.GaugeVec
	newValues  *obs.GaugeVec
	drift      *obs.GaugeVec
	medianQErr *obs.GaugeVec
	p95QErr    *obs.GaugeVec
	feedbackN  *obs.GaugeVec
	tripped    *obs.GaugeVec
	retraining *obs.GaugeVec
	backoff    *obs.GaugeVec
}

func newLCMetrics(o *obs.Registry) lcMetrics {
	return lcMetrics{
		ingested: o.CounterVec("duet_lifecycle_ingested_rows_total",
			"Rows appended to managed backing tables.", "model"),
		feedback: o.CounterVec("duet_lifecycle_feedback_total",
			"Observed-cardinality feedback records accepted.", "model"),
		retrains: o.CounterVec("duet_lifecycle_retrains_total",
			"Retrain attempts by path and outcome.", "model", "kind", "outcome"),
		trainSec: o.HistogramVec("duet_lifecycle_train_seconds",
			"Fine-tune or full-train wall time per retrain attempt.", obs.DurationBuckets, "model"),
		swapSec: o.HistogramVec("duet_lifecycle_swap_seconds",
			"Registry SwapModel latency for successful installs.", obs.LatencyBuckets, "model"),
		pending: o.GaugeVec("duet_lifecycle_pending_rows",
			"Ingested rows not yet folded into a retrain.", "model"),
		newValues: o.GaugeVec("duet_lifecycle_new_values",
			"Ingested cells outside the trained snapshot's dictionaries.", "model"),
		drift: o.GaugeVec("duet_lifecycle_max_column_drift",
			"Largest per-column total-variation distance of pending rows vs the trained snapshot.", "model"),
		medianQErr: o.GaugeVec("duet_lifecycle_median_qerr",
			"Rolling median q-error of the feedback window.", "model"),
		p95QErr: o.GaugeVec("duet_lifecycle_p95_qerr",
			"Rolling 95th-percentile q-error of the feedback window.", "model"),
		feedbackN: o.GaugeVec("duet_lifecycle_feedback_window",
			"Feedback observations currently in the rolling window.", "model"),
		tripped: o.GaugeVec("duet_lifecycle_tripped",
			"1 when the retrain policy is tripped for the model.", "model"),
		retraining: o.GaugeVec("duet_lifecycle_retraining",
			"1 while a retrain of the model is in flight.", "model"),
		backoff: o.GaugeVec("duet_lifecycle_backoff_seconds",
			"Current failure-backoff delay before the model may retry a retrain.", "model"),
	}
}

// registerScrapeHook refreshes the per-model signal gauges from supervisor
// state at scrape time.
func (s *Supervisor) registerScrapeHook(o *obs.Registry) {
	if o == nil {
		return
	}
	o.OnScrape("lifecycle", func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, mg := range s.models {
			m := mg.name
			s.met.pending.With(m).Set(float64(mg.pending))
			s.met.newValues.With(m).Set(float64(mg.fresh))
			s.met.drift.With(m).Set(mg.maxDrift())
			s.met.medianQErr.With(m).Set(mg.fb.quantile(0.50))
			s.met.p95QErr.With(m).Set(mg.fb.quantile(0.95))
			s.met.feedbackN.With(m).Set(float64(mg.fb.len()))
			s.met.tripped.With(m).Set(boolGauge(s.trippedLocked(mg)))
			s.met.retraining.With(m).Set(boolGauge(mg.retraining))
			s.met.backoff.With(m).Set(failureBackoff(mg.consecFails).Seconds())
		}
	})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// logRetrain reports one finished retrain attempt to the configured logger.
func (s *Supervisor) logRetrain(st RetrainStats) {
	lg := s.opt.Log
	if lg == nil {
		return
	}
	if st.Err != nil {
		lg.Error("retrain failed",
			"model", st.Model, "version", st.Version, "kind", string(st.Kind),
			"error", st.Err)
		return
	}
	lg.Info("model installed",
		"model", st.Model, "version", st.Version, "kind", string(st.Kind),
		"rows", st.Rows, "feedback", st.Feedback,
		"train_ms", st.TrainDuration.Milliseconds(),
		"swap_us", st.SwapLatency.Microseconds(),
		"path", st.Path)
}
