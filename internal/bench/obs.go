package bench

import (
	"context"
	"fmt"
	"io"

	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/relation"
	"duet/internal/serve"
	"duet/internal/workload"
)

// ObsReport measures what the observability layer costs on the serving hot
// path: sequential estimate throughput through the engine with the metrics
// instruments wired (exemplar-capable stage histograms, request/hit
// counters, an armed tracer with SLO budgets — the always-on production
// configuration) against the bare engine. The overhead percentage feeds the
// -json perf snapshot and is gated at 5% by the trend check. Tracing is
// request-scoped (a request without X-Duet-Trace takes no span path), so the
// gated figure isolates the unconditional cost every request pays; the
// traced figures report the opt-in cost of a request that carries a trace
// (spans, exemplars, budget checks at every span close) and are
// informational, not gated.
type ObsReport struct {
	Requests          int
	BaseQPS           float64 // bare engine, no registry wired
	ObsQPS            float64 // metrics registry + armed tracer wired, untraced requests
	OverheadPct       float64 // 100 * (BaseQPS - ObsQPS) / BaseQPS
	TracedQPS         float64 // same instruments, every request traced end to end
	TracedOverheadPct float64 // 100 * (BaseQPS - TracedQPS) / BaseQPS
}

// ObsOverhead is experiment id "obs". The engine runs unbatched and uncached
// (MaxBatch 1, cache off, one caller), so every request pays one inline forward
// pass plus exactly the per-request bookkeeping under measurement — the
// configuration where instrumentation overhead is largest relative to work
// done. Five alternating rounds per configuration, best-of, so one scheduler
// hiccup cannot fake a regression.
func ObsOverhead(w io.Writer, s Scale) (*ObsReport, error) {
	header(w, "Obs: instrumentation overhead on the serving hot path")

	tbl := relation.Generate(relation.SynConfig{
		Name: "alpha", Rows: 2000, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 50, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 16, Skew: 1.5, Parent: 0, Noise: 0.2},
		},
	})
	cfg := core.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	cfg.Seed = 7
	m := core.NewModel(tbl, cfg)

	// Rounds must be long enough that one scheduler preemption cannot move
	// the percentage: ~2000 requests is ~10ms per round at typical rates.
	reqs := 200 * s.Epochs
	if reqs < 2000 {
		reqs = 2000
	}
	queries := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), reqs))
	reqs = len(queries)

	// The armed production configuration: per-stage SLO budgets derived from
	// this plan's roofline, checked at every span close of a traced request.
	budgets := serve.DeriveBudgets(m.WarmPlan(), 0, serve.CalibrateBudgets())

	serveCfg := serve.Config{MaxBatch: 1, CacheSize: -1}
	run := func(reg *obs.Registry, traced bool) (float64, error) {
		cfg := serveCfg
		cfg.Obs = reg
		cfg.ObsModel = "alpha"
		var tracer *obs.Tracer
		if reg != nil {
			tracer = obs.NewTracer(obs.TracerConfig{RingSize: 64, Budgets: budgets, Metrics: reg})
		}
		e := serve.New(m, cfg)
		defer e.Close()
		ctx := context.Background()
		stop := timer()
		for _, q := range queries {
			qctx := ctx
			var t *obs.Trace
			if traced {
				qctx, t = tracer.Start(ctx, "")
			}
			if _, err := e.Estimate(qctx, q); err != nil {
				return 0, err
			}
			if traced {
				tracer.Finish(t)
			}
		}
		return float64(reqs) / stop().Seconds(), nil
	}

	rep := &ObsReport{Requests: reqs}
	for round := 0; round < 5; round++ {
		base, err := run(nil, false)
		if err != nil {
			return nil, err
		}
		if base > rep.BaseQPS {
			rep.BaseQPS = base
		}
		instrumented, err := run(obs.NewRegistry(), false)
		if err != nil {
			return nil, err
		}
		if instrumented > rep.ObsQPS {
			rep.ObsQPS = instrumented
		}
		traced, err := run(obs.NewRegistry(), true)
		if err != nil {
			return nil, err
		}
		if traced > rep.TracedQPS {
			rep.TracedQPS = traced
		}
	}
	rep.OverheadPct = 100 * (rep.BaseQPS - rep.ObsQPS) / rep.BaseQPS
	rep.TracedOverheadPct = 100 * (rep.BaseQPS - rep.TracedQPS) / rep.BaseQPS

	fmt.Fprintf(w, "sequential, unbatched, uncached: %d requests per round, best of 5\n", reqs)
	fmt.Fprintf(w, "bare %.0f q/s; instrumented %.0f q/s -> overhead %.2f%% (gated at 5%%)\n",
		rep.BaseQPS, rep.ObsQPS, rep.OverheadPct)
	fmt.Fprintf(w, "every request traced (spans + exemplars + budget checks): %.0f q/s -> overhead %.2f%% (informational)\n",
		rep.TracedQPS, rep.TracedOverheadPct)
	return rep, nil
}
