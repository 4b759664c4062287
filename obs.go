package duet

// Observability, re-exported from internal/obs: the fleet-wide metrics
// registry with Prometheus text exposition, request tracing over the
// X-Duet-Trace header, and the structured-logging/pprof wiring every
// duetserve process shares. Build one ObsSuite per process, hand its
// Metrics registry to RegistryConfig.Obs / LifecycleOptions.Obs /
// ClusterConfig.Obs, and pass the suite to NewAPIServer — the /v1/metrics
// and /v1/stats surfaces then read the same instruments by construction.

import (
	"io"
	"log/slog"
	"time"

	"duet/internal/cluster"
	"duet/internal/obs"
	"duet/internal/serve"
)

type (
	// ObsSuite bundles one process's observability: the metrics registry,
	// the trace ring, the structured logger, and the pprof switch.
	ObsSuite = obs.Suite
	// ObsConfig tunes an ObsSuite (trace-ring size, slow-query threshold,
	// logger, pprof).
	ObsConfig = obs.SuiteConfig
	// ObsRegistry is the concurrency-safe metrics registry; its WriteText
	// emits Prometheus text exposition format.
	ObsRegistry = obs.Registry
	// ObsTracer records per-request traces into a bounded ring served at
	// /v1/debug/traces.
	ObsTracer = obs.Tracer
	// ObsTraceSnapshot is one sealed trace as /v1/debug/traces reports it.
	ObsTraceSnapshot = obs.TraceSnapshot
)

// TraceHeader carries the trace id between client, proxy, and replicas.
const TraceHeader = obs.TraceHeader

// ClusterReplicaHeader names the replica that answered (or, on proxy-origin
// errors, the last member tried).
const ClusterReplicaHeader = cluster.ReplicaHeader

// NewObsSuite builds a process's observability suite.
func NewObsSuite(cfg ObsConfig) *ObsSuite { return obs.NewSuite(cfg) }

// NewObsLogger builds the stack's standard structured text logger.
func NewObsLogger(w io.Writer, level slog.Level) *slog.Logger { return obs.NewLogger(w, level) }

// DeriveSLOBudgets derives the default per-stage SLO budget table from a
// roofline model of the packed plan: a short calibration run measures the
// active kernel tier's sustained bandwidth, and the expected plan_exec
// latency for a plan keeping planBytes of weights resident follows from
// weight traffic divided by that bandwidth (the forward pass is memory-
// bound). The other stages derive from plan_exec; see
// internal/serve.DeriveBudgets for the exact table. flushWindow is unused —
// the engine has no flush timer, and the worst batch_wait is one pass in
// flight — and stays in the signature for existing callers. Install the
// result with ObsSuite.Tracer.SetBudgets, overlaying any operator-configured
// budgets.
func DeriveSLOBudgets(planBytes int, flushWindow time.Duration) map[string]time.Duration {
	return serve.DeriveBudgets(planBytes, serve.CalibrateBudgets())
}
