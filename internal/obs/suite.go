package obs

import (
	"io"
	"log/slog"
	"runtime"
	"time"
)

// SuiteConfig configures NewSuite. Per-stage SLO budgets are not part of
// it: they are installed with Tracer.SetBudgets once model plans are known.
type SuiteConfig struct {
	// TraceRing bounds the recent-trace ring (default 256). Negative
	// disables tracing entirely.
	TraceRing int
	// SlowQuery, when positive, logs traces at least this long.
	SlowQuery time.Duration
	// Log is the structured logger shared by the stack; slog.Default()
	// when nil.
	Log *slog.Logger
	// Pprof opts the HTTP server into net/http/pprof routes.
	Pprof bool
}

// Suite bundles the three observability pillars so callers thread one value
// through the stack. A nil *Suite (and each nil field) disables that pillar
// without any call-site branching.
type Suite struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *slog.Logger
	Pprof   bool
}

// NewSuite builds a fully wired suite: metrics registry with Go runtime
// gauges, trace ring, structured logger.
func NewSuite(cfg SuiteConfig) *Suite {
	s := &Suite{Metrics: NewRegistry(), Log: cfg.Log, Pprof: cfg.Pprof}
	if cfg.TraceRing >= 0 {
		s.Tracer = NewTracer(TracerConfig{
			RingSize:      cfg.TraceRing,
			SlowThreshold: cfg.SlowQuery,
			Metrics:       s.Metrics,
			Log:           cfg.Log,
		})
	}
	registerRuntimeMetrics(s.Metrics)
	return s
}

// Logger returns the suite's logger, falling back to slog.Default. Safe on a
// nil suite.
func (s *Suite) Logger() *slog.Logger {
	if s == nil || s.Log == nil {
		return slog.Default()
	}
	return s.Log
}

// NewLogger builds the stack's standard slog text logger.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// registerRuntimeMetrics exports process health gauges: goroutine count live
// at scrape time, heap and GC figures refreshed by a scrape hook so a single
// ReadMemStats covers all of them.
func registerRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("duet_go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	heap := r.Gauge("duet_go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	gcPause := r.Gauge("duet_go_gc_pause_last_seconds", "Duration of the most recent GC stop-the-world pause.")
	gcRuns := r.Gauge("duet_go_gc_runs_total", "Completed GC cycles since process start.")
	r.OnScrape("runtime", func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(float64(ms.HeapAlloc))
		gcRuns.Set(float64(ms.NumGC))
		if ms.NumGC > 0 {
			gcPause.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
		}
	})
}
