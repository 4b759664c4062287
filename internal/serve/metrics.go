package serve

import (
	"duet/internal/obs"
)

// engineMetrics holds the engine's operational counters as obs instruments.
// They are the engine's only counters — Stats() reads the same atomics the
// Prometheus exposition does, so the JSON snapshot and a metrics scrape can
// never disagree. With no obs registry configured the instruments are
// detached (they count but are not exported) and the stage clocks stay off,
// keeping the uninstrumented hot path at its pre-obs cost.
type engineMetrics struct {
	// timed turns on the per-stage histograms, fed by the calls whose stage
	// clocks run (see estimate). It is set when a registry is wired.
	timed bool

	requests  *obs.Counter
	hits      *obs.Counter
	dedup     *obs.Counter // queries answered by sharing another query's slot in a pass
	batches   *obs.Counter
	batched   *obs.Counter
	panics    *obs.Counter // backend passes that panicked and were contained
	shedRate  *obs.Counter
	shedQueue *obs.Counter
	maxBatch  *obs.Gauge
	batchSize *obs.Histogram

	admissionWait *obs.Histogram
	batchWait     *obs.Histogram
	cacheLookup   *obs.Histogram
	planExec      *obs.Histogram
}

func newEngineMetrics(r *obs.Registry, model string) engineMetrics {
	shed := r.CounterVec("duet_serve_shed_total",
		"Queries rejected by admission control, by tripped bound.", "model", "reason")
	stage := r.HistogramVec("duet_serve_stage_seconds",
		"Per-stage serving latency: admission_wait, batch_wait, cache_lookup, plan_exec. Samples every traced call and 1 in 8 of the rest.",
		obs.LatencyBuckets, "model", "stage")
	return engineMetrics{
		timed: r != nil,
		requests: r.CounterVec("duet_serve_requests_total",
			"Queries received (Estimate and EstimateBatch items).", "model").With(model),
		hits: r.CounterVec("duet_serve_cache_hits_total",
			"Queries answered from the canonical-key LRU cache.", "model").With(model),
		dedup: r.CounterVec("duet_serve_dedup_total",
			"Queries answered by riding another identical query's slot in the same pass.", "model").With(model),
		batches: r.CounterVec("duet_serve_batches_total",
			"Backend forward passes issued.", "model").With(model),
		batched: r.CounterVec("duet_serve_batched_queries_total",
			"Queries answered by backend passes, after in-flight dedup.", "model").With(model),
		panics: r.CounterVec("duet_serve_panics_total",
			"Backend forward passes that panicked; every call of such a pass fails with an error.", "model").With(model),
		shedRate:  shed.With(model, "rate"),
		shedQueue: shed.With(model, "queue"),
		maxBatch: r.GaugeVec("duet_serve_max_batch",
			"Largest backend batch observed.", "model").With(model),
		batchSize: r.HistogramVec("duet_serve_batch_size",
			"Distinct queries per backend forward pass, for the passes that answered a sampled call.", obs.SizeBuckets, "model").With(model),
		admissionWait: stage.With(model, "admission_wait"),
		batchWait:     stage.With(model, "batch_wait"),
		cacheLookup:   stage.With(model, "cache_lookup"),
		planExec:      stage.With(model, "plan_exec"),
	}
}

// registerEngineGauges exports the per-engine values that live outside the
// counter set: cache occupancy (refreshed at scrape time) and the configured
// rate budget. The scrape hook is keyed by model so the engine created by a
// hot swap replaces its predecessor's hook instead of stacking a stale one.
func registerEngineGauges(r *obs.Registry, model string, e *Estimator) {
	if r == nil {
		return
	}
	entries := r.GaugeVec("duet_serve_cache_entries",
		"Current result-cache occupancy.", "model").With(model)
	r.GaugeVec("duet_serve_rate_limit",
		"Configured sustained QPS budget (0 = unlimited).", "model").
		With(model).Set(e.cfg.Admission.QPS)
	r.OnScrape("serve:"+model, func() { entries.Set(float64(e.cache.len())) })
}
