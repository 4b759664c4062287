package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"testing"

	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/relation"
	"duet/internal/workload"
)

// benchBatch is the micro-batch size the acceptance criterion is stated at.
const benchBatch = 64

var benchSetup struct {
	once sync.Once
	m    *core.Model
	qs   []workload.Query
}

// benchModel lazily builds one shared SynDMV model and workload; benchmarks
// only read it (model access is serialized inside each benchmark body).
func benchModel(b *testing.B) (*core.Model, []workload.Query) {
	b.Helper()
	benchSetup.once.Do(func() {
		tbl := relation.SynDMV(5000, 42)
		benchSetup.m = core.NewModel(tbl, core.DefaultConfig())
		benchSetup.qs = workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 1024))
	})
	return benchSetup.m, benchSetup.qs
}

// reportQPS converts ns/op bookkeeping into the queries/sec figure the
// batched-vs-sequential comparison is judged on.
func reportQPS(b *testing.B, queries int) {
	b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkEstimateSequential is the baseline: one forward pass per query
// through Model.EstimateCard, the pre-serving code path.
func BenchmarkEstimateSequential(b *testing.B) {
	m, qs := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateCard(qs[i%len(qs)])
	}
	reportQPS(b, b.N)
}

// BenchmarkEstimateBatched answers 64 queries per forward pass through
// Model.EstimateCardBatch; one op is one micro-batch. The acceptance bar is
// ≥3× the sequential queries/s.
func BenchmarkEstimateBatched(b *testing.B) {
	m, qs := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * benchBatch) % (len(qs) - benchBatch)
		m.EstimateCardBatch(qs[lo : lo+benchBatch])
	}
	reportQPS(b, b.N*benchBatch)
}

// BenchmarkEstimateLoneMiss is one caller whose every request misses: each
// op is one inline forward pass plus the engine's bookkeeping, so bare should
// sit just above BenchmarkEstimateSequential and far below any timer tick.
// instrumented wires the metrics registry (what every served request pays);
// traced also opens a trace per request against an armed tracer with SLO
// budgets (what a request carrying X-Duet-Trace pays).
func BenchmarkEstimateLoneMiss(b *testing.B) {
	m, qs := benchModel(b)
	for _, mode := range []string{"bare", "instrumented", "traced"} {
		b.Run(mode, func(b *testing.B) {
			cfg := Config{MaxBatch: benchBatch, CacheSize: -1}
			var tracer *obs.Tracer // nil: Start and Finish pass through
			if mode != "bare" {
				cfg.Obs, cfg.ObsModel = obs.NewRegistry(), "bench"
			}
			if mode == "traced" {
				tracer = obs.NewTracer(obs.TracerConfig{Metrics: cfg.Obs,
					Log: slog.New(slog.DiscardHandler)}) // a preempted pass blows its budget; keep that off stderr
				tracer.SetBudgets(DeriveBudgets(m.WarmPlan(), CalibrateBudgets()))
			}
			e := New(m, cfg)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, tr := tracer.Start(context.Background(), "")
				if _, err := e.Estimate(ctx, qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
				tracer.Finish(tr)
			}
			reportQPS(b, b.N)
		})
	}
}

// BenchmarkEstimateContended is 1, 2 and 4 callers whose every request
// misses. With more than one the backend is always busy, so each op waits
// out the pass in flight and is handed the backend for its own (or rides in
// a batch); callers=1 is BenchmarkEstimateLoneMiss/bare. A waiting caller
// that took the processor from the pass in flight would show here as
// callers=2 answering well under callers=1.
func BenchmarkEstimateContended(b *testing.B) {
	m, qs := benchModel(b)
	for _, callers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			e := New(m, Config{MaxBatch: benchBatch, CacheSize: -1})
			defer e.Close()
			ctx := context.Background()
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += callers {
						if _, err := e.Estimate(ctx, qs[i%len(qs)]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			reportQPS(b, b.N)
			st := e.Stats()
			b.ReportMetric(float64(st.BatchedQueries)/float64(st.Batches), "queries/pass")
		})
	}
}

// BenchmarkEstimateServed drives the full engine — coalescing, dedup, cache —
// from 32 concurrent callers over a query set large enough that most
// requests miss the cache.
func BenchmarkEstimateServed(b *testing.B) {
	m, qs := benchModel(b)
	e := New(m, Config{MaxBatch: benchBatch, CacheSize: 256})
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	b.SetParallelism(32)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Estimate(ctx, qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	reportQPS(b, b.N)
}

// BenchmarkEstimateCached measures the steady-state cache-hit path: every
// query after the warm-up round is answered from the LRU without touching
// the model.
func BenchmarkEstimateCached(b *testing.B) {
	m, qs := benchModel(b)
	e := New(m, Config{MaxBatch: benchBatch, CacheSize: 2048})
	defer e.Close()
	ctx := context.Background()
	hot := qs[:256]
	if _, err := e.EstimateBatch(ctx, hot); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(ctx, hot[i%len(hot)]); err != nil {
			b.Fatal(err)
		}
	}
	reportQPS(b, b.N)
}
