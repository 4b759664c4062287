// Package duet is the public API of this repository: a from-scratch Go
// reproduction of "Duet: Efficient and Scalable Hybrid Neural Relation
// Understanding" (ICDE 2024), a hybrid neural cardinality estimator that
// answers conjunctive range queries with a single deterministic network
// forward pass — no progressive sampling — and trains on both the data
// (cross-entropy over a virtual table of predicates) and historical query
// workloads (a smoothed, fully differentiable Q-Error loss).
//
// The facade re-exports the pieces a downstream user needs: dictionary-
// encoded tables (CSV or synthetic), query/workload construction, the exact
// executor for labelling, the Duet model, the baselines the paper compares
// against, and a concurrent batched serving engine. Everything is
// implemented on the standard library.
//
// Quick start:
//
//	tbl, _ := duet.LoadCSV(f, "orders", true)
//	model := duet.New(tbl, duet.DefaultConfig())
//	duet.Train(model, duet.DefaultTrainConfig())
//	card := model.EstimateCard(duet.Q(duet.Pred(tbl, "price", duet.OpLe, 100)))
//
// Serving: because Duet answers a query with a single deterministic forward
// pass (no progressive sampling), concurrent requests can be coalesced into
// micro-batches and answered by one batched inference without changing any
// individual estimate. NewEstimator wraps a model in that engine — a
// canonical-key LRU result cache, a packed batch inference plan that skips
// the network's structural zeros, and coalescing driven by the backend's
// occupancy rather than a timer: an estimate that finds the model idle runs
// its forward pass inline, and those that arrive meanwhile ride the next
// pass together:
//
//	est := duet.NewEstimator(model, duet.ServeConfig{})
//	defer est.Close()
//	card, err := est.Estimate(ctx, q)            // inline, or batched behind a busy model
//	cards, err := est.EstimateBatch(ctx, queries) // explicit batch
//
// Multi-model serving: NewRegistry owns many named estimators — base tables
// and NeuroCard-style join views — behind one router, with model persistence
// and drain-safe hot reload (a reload swaps the estimator atomically and the
// old one answers its in-flight requests before closing):
//
//	reg := duet.NewRegistry(duet.RegistryConfig{Dir: "models"})
//	defer reg.Close()
//	reg.Add("orders", ordersTbl, ordersModel, duet.AddOpts{})
//	reg.Add("oc", joinedTbl, joinModel, duet.AddOpts{
//	    Join: &duet.JoinSpec{Left: "orders", LeftCol: "cust_id", Right: "customers", RightCol: "id"}})
//	res, err := reg.Query(ctx, duet.QueryRequest{Model: "orders", Queries: []duet.Query{q}})
//	res, err = reg.Query(ctx, duet.QueryRequest{Expr: "orders.cust_id = customers.id AND orders.amount<=10"})
//	// res.Models[0] answered, res.Cards[0] is its estimate
//
// Multi-way joins: BuildJoinGraphView materializes the full outer join of an
// N-table join tree (chain or star) with per-base-table fanout columns, and a
// view registered with AddOpts.Graph answers queries carrying several join
// clauses. The router matches the clause set against the view's edge set —
// orientation- and order-insensitively, including connected subsets of a
// larger view — and anchors every estimate on the exact inner-join
// cardinality of the queried subtree (fanout correction), so a join-size
// query with no predicates is answered exactly:
//
//	view, _ := duet.BuildJoinGraphView("ocr",
//	    []*duet.Table{orders, customers, regions},
//	    []duet.JoinEdge{
//	        {LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
//	        {LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"}})
//	reg.Add("ocr", view, viewModel, duet.AddOpts{Graph: &duet.JoinGraphSpec{
//	    Tables: []string{"orders", "customers", "regions"},
//	    Edges: []duet.JoinEdgeSpec{
//	        {Left: "orders", LeftCol: "cust_id", Right: "customers", RightCol: "id"},
//	        {Left: "customers", LeftCol: "region_id", Right: "regions", RightCol: "id"}}}})
//	res, err := reg.Query(ctx, duet.QueryRequest{Expr:
//	    "orders.cust_id = customers.id AND customers.region_id = regions.id AND orders.amount<=10"})
//
// Sampled materialization: when the full outer join is too large to build,
// BuildSampledJoinGraphView draws an unbiased budget-row sample of it in the
// identical column layout (NewJoinSampler is the underlying constant-memory
// tuple stream; TrainConfig.Source trains from fresh draws). Register the
// sample with JoinGraphSpec.Sample = budget — after its base tables — and
// the router serves it through the same Resolution path, anchoring every
// estimate on exact base-table join cardinalities:
//
//	view, sampler, _ := duet.BuildSampledJoinGraphView("ocr", tables, edges, 100_000, 1)
//	model := duet.New(view, duet.DefaultConfig())
//	tc := duet.DefaultTrainConfig()
//	tc.Source, tc.SourceRows = sampler, 100_000
//	duet.Train(model, tc)
//
// cmd/duetserve exposes the registry over HTTP (POST /v1/estimate with an
// optional model name, GET /v1/models, POST /v1/models/{name}/reload,
// GET /v1/healthz, GET /v1/stats); examples/serving and examples/multimodel
// are runnable walkthroughs.
//
// See examples/ for runnable programs and internal/bench for the harness
// that regenerates every table and figure of the paper.
package duet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"duet/internal/colstore"
	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/lifecycle"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/serve"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// Re-exported relation types.
type (
	// Table is a dictionary-encoded columnar relation.
	Table = relation.Table
	// Column is one dictionary-encoded column.
	Column = relation.Column
)

// Re-exported query types.
type (
	// Query is a conjunction of predicates.
	Query = workload.Query
	// Predicate constrains one column at dictionary-code level.
	Predicate = workload.Predicate
	// LabeledQuery pairs a query with its true cardinality.
	LabeledQuery = workload.LabeledQuery
	// Op is a comparison operator.
	Op = workload.Op
)

// Comparison operators.
const (
	OpEq = workload.OpEq
	OpGt = workload.OpGt
	OpLt = workload.OpLt
	OpGe = workload.OpGe
	OpLe = workload.OpLe
)

// Re-exported Duet model types.
type (
	// Model is a Duet estimator.
	Model = core.Model
	// Config describes the model architecture.
	Config = core.Config
	// TrainConfig controls (hybrid) training.
	TrainConfig = core.TrainConfig
	// EpochStats summarizes a training epoch.
	EpochStats = core.EpochStats
	// FineTuneConfig controls post-deployment fine-tuning on collected
	// queries (the paper's long-tail mitigation; the lifecycle subsystem
	// runs it automatically on observed feedback).
	FineTuneConfig = core.FineTuneConfig
)

// New builds an untrained Duet model for a table.
func New(t *Table, cfg Config) *Model { return core.NewModel(t, cfg) }

// DefaultConfig returns the ResMADE-128 configuration the paper uses for
// medium tables.
func DefaultConfig() Config { return core.DefaultConfig() }

// DMVConfig returns the larger MADE configuration for high-cardinality
// tables.
func DMVConfig() Config { return core.DMVConfig() }

// DefaultTrainConfig returns the paper's training defaults (µ=4, λ=0.1).
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// Train fits a model; pass a labeled workload in cfg.Workload for hybrid
// training, or leave it empty for the data-only DuetD variant.
func Train(m *Model, cfg TrainConfig) []EpochStats { return core.Train(m, cfg) }

// DefaultFineTuneConfig returns conservative fine-tuning defaults.
func DefaultFineTuneConfig() FineTuneConfig { return core.DefaultFineTuneConfig() }

// FineTune tunes a model on queries with large observed errors (smoothed
// Q-Error loss only), returning the mean loss per step.
func FineTune(m *Model, bad []LabeledQuery, cfg FineTuneConfig) []float64 {
	return core.FineTune(m, bad, cfg)
}

// LoadModel restores a model saved with Model.Save, validated against t.
func LoadModel(r io.Reader, t *Table) (*Model, error) { return core.Load(r, t) }

// LoadCSV reads a CSV stream into a dictionary-encoded table with inferred
// column kinds.
func LoadCSV(r io.Reader, name string, header bool) (*Table, error) {
	return relation.LoadCSV(r, name, header)
}

// ColStore is an opened .duetcol columnar table file. Its Table field serves
// every read through the file's memory mapping (dictionaries, code arrays,
// pack-time histograms), so a base table larger than RAM pages in on demand
// instead of being decoded up front. Close releases the mapping — only after
// nothing references the Table anymore.
type ColStore = colstore.Store

// PackTable writes a table to path in the .duetcol columnar format:
// width-minimal code arrays, dictionaries, and per-column histograms, 64-byte
// aligned for in-place reinterpretation, checksummed, and installed atomically
// (temp + rename). The duettrain -pack flag is the CLI entry point.
func PackTable(path string, t *Table) error { return colstore.Write(path, t) }

// OpenColumnar opens a .duetcol file written by PackTable. On unix the file is
// memory-mapped read-only (set DUET_NO_MMAP=1 to force the portable read-once
// fallback, which yields byte-identical tables); elsewhere the fallback is
// automatic.
func OpenColumnar(path string) (*ColStore, error) { return colstore.Open(path) }

// OpenTable opens the table the CLIs' -csv / -syn flags (and a manifest's
// csv / syn fields) name: a .duetcol file, memory-mapped and read through for
// the life of the process; any other path as CSV with a header row, the table
// named after the path; or, with no path, the synthetic dataset syn (dmv, kdd
// or census) at the given size and seed.
func OpenTable(path, syn string, rows int, seed int64) (*Table, error) {
	switch {
	case strings.HasSuffix(path, ".duetcol"):
		s, err := OpenColumnar(path)
		if err != nil {
			return nil, err
		}
		return s.Table, nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return LoadCSV(f, path, true)
	case syn != "":
		return relation.Synthetic(syn, rows, seed)
	default:
		return nil, errors.New("one of -csv or -syn is required")
	}
}

// SynDMV, SynKDD and SynCensus generate the synthetic stand-ins for the
// paper's three evaluation datasets.
func SynDMV(rows int, seed int64) *Table { return relation.SynDMV(rows, seed) }

// SynKDD generates the 100-column high-dimensional dataset shape.
func SynKDD(rows int, seed int64) *Table { return relation.SynKDD(rows, seed) }

// SynCensus generates the small-table dataset shape.
func SynCensus(rows int, seed int64) *Table { return relation.SynCensus(rows, seed) }

// Pred builds a predicate on a named column from a raw int64 value, exactly
// as the textual predicate "column op value" resolves. For ordering
// operators the value is mapped to the dictionary with lower-bound
// semantics; for equality it must be present exactly (otherwise the
// predicate selects nothing, which Card reports as 0). It panics on an
// unknown or string column.
func Pred(t *Table, column string, op Op, value int64) Predicate {
	p, err := workload.ResolvePredicate(t, column, op, strconv.FormatInt(value, 10))
	if err != nil {
		panic(fmt.Sprintf("duet: %v", err))
	}
	return p
}

// Q builds a conjunctive query from predicates.
func Q(preds ...Predicate) Query { return Query{Preds: preds} }

// Card computes the exact cardinality of q on t (the ground-truth oracle).
func Card(t *Table, q Query) int64 { return exec.Cardinality(t, q) }

// Label pairs queries with exact cardinalities, in parallel.
func Label(t *Table, qs []Query) []LabeledQuery { return exec.Label(t, qs) }

// GenerateWorkload produces queries following the paper's protocol.
func GenerateWorkload(t *Table, cfg WorkloadConfig) []Query { return workload.Generate(t, cfg) }

// WorkloadConfig re-exports the generator configuration.
type WorkloadConfig = workload.GenConfig

// RandQConfig returns the paper's random-query workload settings.
func RandQConfig(ncols, numQueries int) WorkloadConfig {
	return workload.RandQConfig(ncols, numQueries)
}

// InQConfig returns the paper's in-workload settings.
func InQConfig(ncols, numQueries, boundedCol int) WorkloadConfig {
	return workload.InQConfig(ncols, numQueries, boundedCol)
}

// QError is the standard accuracy metric: max(est,act)/min(est,act), both
// clamped to >= 1.
func QError(est, act float64) float64 { return workload.QError(est, act) }

// Serving types, re-exported from internal/serve.
type (
	// Estimator is the concurrent batched serving engine: it fronts the
	// model with a canonical-key LRU result cache, runs a lone Estimate's
	// forward pass inline, and coalesces the calls that arrive while a pass
	// is running into the next one. Safe for concurrent use; Close releases
	// it.
	Estimator = serve.Estimator
	// ServeConfig tunes the engine; the zero value selects sensible
	// defaults (batch 64, 4096-entry cache). FlushWindow is accepted and
	// ignored: nothing in the engine waits on a clock.
	ServeConfig = serve.Config
	// ServeStats is a snapshot of the engine's counters.
	ServeStats = serve.Stats
)

// ErrEstimatorClosed is returned by Estimate and EstimateBatch after Close.
var ErrEstimatorClosed = serve.ErrClosed

// NewEstimator wraps a model in the concurrent batched serving engine. The
// engine owns all model access from this point: do not call the model's own
// estimation or training methods concurrently with it.
//
// The engine's result cache and in-flight deduplication identify queries by
// predicate set, which is only sound for order-invariant estimators: the
// direct encoding and the paper's recommended MLP MPSN (a sum over
// predicates). NewEstimator panics with Model.Servable's error for the
// order-sensitive RNN/recursive MPSN research ablations.
func NewEstimator(m *Model, cfg ServeConfig) *Estimator {
	if err := m.Servable(); err != nil {
		panic(err)
	}
	return serve.New(m, cfg)
}

// Multi-model registry types, re-exported from internal/registry.
type (
	// Registry is the multi-tenant serving layer: named estimators (base
	// tables and join views) behind one join-aware router, with model
	// persistence and drain-safe hot reload. Safe for concurrent use.
	Registry = registry.Registry
	// RegistryConfig tunes the registry: model directory, per-model serve
	// engine settings, and the hot-reload watch interval.
	RegistryConfig = registry.Config
	// AddOpts refines Registry.Add (model file path, join-view spec,
	// per-model serve config).
	AddOpts = registry.AddOpts
	// JoinSpec names the two-table equi-join a legacy view was built from.
	JoinSpec = registry.JoinSpec
	// JoinGraphSpec names the N-way join tree a graph view was built from.
	JoinGraphSpec = registry.JoinGraphSpec
	// JoinEdgeSpec is one equi-join edge of a JoinGraphSpec.
	JoinEdgeSpec = registry.JoinEdgeSpec
	// Resolution is a routed expression: model, rewritten query, and — for
	// join-graph routes — the fanout calibration anchoring the estimate.
	Resolution = registry.Resolution
	// ModelInfo is a snapshot of one registered model.
	ModelInfo = registry.ModelInfo
	// RegistryStats aggregates router counters and per-model engine stats.
	RegistryStats = registry.Stats
)

// ErrRegistryClosed is returned by registry operations after Registry.Close.
var ErrRegistryClosed = registry.ErrClosed

// QuantInt8 selects the int8 packed-plan weight representation in
// AddOpts.Quant: per-span symmetric quantization, roughly 4x smaller resident
// plan, with estimates that approximate (not bitwise match) the f32 plan's.
const QuantInt8 = registry.QuantInt8

// KernelTier reports the active SIMD kernel tier ("avx2", "sse", "neon", or
// "generic"), selected at startup from CPU features; the DUET_KERNEL
// environment variable forces a slower tier. Every tier computes bitwise-
// identical results; they differ only in speed.
func KernelTier() string { return tensor.KernelTier() }

// RegisterKernelMetrics exports the active kernel tier as an info-style gauge
// — duet_kernel_tier{tier="avx2"} 1 — so dashboards can break fleet latency
// down by the SIMD tier each process selected. A nil registry is a no-op.
func RegisterKernelMetrics(reg *ObsRegistry) {
	reg.GaugeVec("duet_kernel_tier",
		"Active SIMD kernel tier (info gauge: the selected tier's series is 1).", "tier").
		With(tensor.KernelTier()).Set(1)
}

// NewRegistry creates an empty multi-model registry. Register models with
// Registry.Add (a nil model loads weights from the model directory), then
// answer queries with Registry.Query, which routes join expressions
// ("a.x = b.y AND ...") to the registered join view.
func NewRegistry(cfg RegistryConfig) *Registry { return registry.New(cfg) }

// BuildJoinView materializes the inner equi-join of two registered base
// tables for training a legacy two-table join-view model (NeuroCard-style:
// answer join queries as single-table queries over the join result).
func BuildJoinView(name string, left *Table, leftCol string, right *Table, rightCol string) (*Table, error) {
	return relation.EquiJoin(name, left, leftCol, right, rightCol)
}

// JoinEdge is one equi-join condition between two named tables, the edge
// type of a join graph.
type JoinEdge = relation.JoinEdge

// BuildJoinGraphView materializes the full outer join of an N-table join
// tree (len(tables)-1 edges connecting every table) with per-base-table
// fanout columns — the training substrate for a registry join-graph view
// (AddOpts.Graph). Restricting the result to rows where every fanout column
// is >= 1 recovers exactly the inner join; the registry router does this, and
// anchors estimates on exact subtree cardinalities, automatically.
//
// Materialization is O(join size); for join trees whose full outer join
// outgrows memory, use BuildSampledJoinGraphView instead.
func BuildJoinGraphView(name string, tables []*Table, edges []JoinEdge) (*Table, error) {
	return relation.MultiJoin(name, &relation.JoinGraph{Tables: tables, Edges: edges})
}

// JoinSampler draws unbiased uniform tuples from the full outer join of a
// join tree without materializing it: per-edge hash indexes plus per-row
// downward fanout weights make each draw O(tree depth) after an
// O(base-table rows) precomputation, so memory is independent of the join
// cardinality. It implements TupleSource, so TrainConfig.Source can stream
// fresh join tuples into training directly.
type JoinSampler = relation.JoinSampler

// TupleSource streams training tuples into Train (TrainConfig.Source); a
// JoinSampler is the canonical implementation.
type TupleSource = core.TupleSource

// NewJoinSampler builds a deterministic sampler over the join tree — the
// constant-memory alternative to BuildJoinGraphView for JOB-scale joins.
func NewJoinSampler(tables []*Table, edges []JoinEdge, seed int64) (*JoinSampler, error) {
	return relation.NewJoinSampler(&relation.JoinGraph{Tables: tables, Edges: edges}, seed)
}

// BuildSampledJoinGraphView draws budget tuples from the join tree's full
// outer join and materializes them in the exact BuildJoinGraphView column
// layout (identical dictionaries — the layout depends only on the graph, so
// models trained against any sample of it are interchangeable). Register the
// result with AddOpts.Graph carrying JoinGraphSpec.Sample = budget, after
// its base tables; train with TrainConfig.Source = the returned sampler to
// stream fresh draws instead of reusing the budget rows. Peak memory is
// O(base tables + budget), never O(join size).
func BuildSampledJoinGraphView(name string, tables []*Table, edges []JoinEdge, budget int, seed int64) (*Table, *JoinSampler, error) {
	s, err := NewJoinSampler(tables, edges, seed)
	if err != nil {
		return nil, nil, err
	}
	view, err := s.SampleTable(name, budget)
	if err != nil {
		return nil, nil, err
	}
	return view, s, nil
}

// JoinGraphCardinality computes the exact N-way inner-join size of a join
// tree without materializing it — the ground-truth oracle for join
// estimates.
func JoinGraphCardinality(tables []*Table, edges []JoinEdge) (int64, error) {
	return relation.MultiJoinCardinality(&relation.JoinGraph{Tables: tables, Edges: edges})
}

// ParseQuery parses a conjunctive WHERE-style expression against a table,
// translating raw values to dictionary codes with lower-bound semantics.
func ParseQuery(t *Table, s string) (Query, error) { return workload.ParseQuery(t, s) }

// AppendRows returns a new table extending t with raw-valued rows (one string
// per column, parsed by the column's kind). Copy-on-write: t is never
// mutated, and columns that see fresh values get merged dictionaries with
// every existing code remapped — the ingest substrate of the lifecycle
// subsystem.
func AppendRows(t *Table, rows [][]string) (*Table, error) { return relation.AppendRows(t, rows) }

// SwapOpts refines Registry.SwapModel, the drain-safe in-memory model install
// path (no disk round-trip; a background retrain swaps its result straight
// in).
type SwapOpts = registry.SwapOpts

// Lifecycle types, re-exported from internal/lifecycle: the drift-aware
// background retraining subsystem that turns a registry into a
// self-maintaining serving system.
type (
	// Lifecycle supervises managed models: it ingests rows, tracks drift
	// (per-column distribution shift and rolling feedback q-error), and
	// retrains + hot-swaps in the background when the policy trips.
	Lifecycle = lifecycle.Supervisor
	// LifecyclePolicy sets the drift thresholds, retrain cadence, and
	// concurrency budget.
	LifecyclePolicy = lifecycle.Policy
	// LifecycleOptions sets the versioned-model directory and observers.
	LifecycleOptions = lifecycle.Options
	// LifecycleManageOpts configures one managed model (architecture and
	// full-retrain training config).
	LifecycleManageOpts = lifecycle.ManageOpts
	// LifecycleModelStats is the externally visible lifecycle state of one
	// managed model (GET /lifecycle in duetserve).
	LifecycleModelStats = lifecycle.ModelStats
	// RetrainStats summarizes one background retrain attempt.
	RetrainStats = lifecycle.RetrainStats
	// IngestResult reports one ingest batch (rows appended, drift signal).
	IngestResult = lifecycle.IngestResult
	// FeedbackResult reports one observed-cardinality feedback record.
	FeedbackResult = lifecycle.FeedbackResult
)

// NewLifecycle starts a lifecycle supervisor (and its background retrain
// worker) over a registry. Register served models with Lifecycle.Manage, feed
// it rows (Ingest) and observed true cardinalities (Feedback), and it
// retrains and hot-swaps on drift — fine-tuning in place when dictionaries
// are unchanged, training from scratch (streamed for sampled join-graph
// views) when they grew. Close it before closing the registry.
func NewLifecycle(reg *Registry, pol LifecyclePolicy, opt LifecycleOptions) *Lifecycle {
	return lifecycle.NewSupervisor(reg, pol, opt)
}
