// Package registry is the multi-tenant serving layer: a concurrency-safe
// collection of named Duet estimators — base tables and join views — each
// wrapped in the internal/serve batching engine, with model persistence
// (internal/artifact against a model directory), atomic hot reload, and a
// join-aware router that resolves textual queries to the right estimator.
//
// Hot reload is drain-safe. Every request pins the estimator handle it was
// routed to with a reference count taken under the registry's read lock; a
// reload builds the replacement estimator off-line, swaps the handle under
// the write lock (so no new request can pin the old one afterwards), then
// waits for the old handle's pins to drain before closing its engine. A
// request therefore always completes against the estimator it started on —
// neither an admin reload nor the file watcher can make an in-flight
// estimate fail or disappear.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/made"
	"duet/internal/obs"
	"duet/internal/relation"
	"duet/internal/serve"
	"duet/internal/workload"
)

// ErrClosed is returned by every registry operation after Close.
var ErrClosed = errors.New("registry: closed")

// Config tunes the registry. The zero value serves from the current
// directory with default engine settings and no file watcher.
type Config struct {
	// Dir is the model directory: Add with a nil model loads <Dir>/<name>.duet,
	// SaveModel writes there, and the watcher polls files under it. Default ".".
	Dir string
	// Serve is the registry-wide serving-engine configuration; the zero value
	// selects the engine defaults (batch 64, 100µs window, 4096-entry cache).
	// AddOpts.Serve overrides it per model.
	Serve serve.Config
	// WatchInterval enables the hot-reload file watcher: every interval, each
	// file-backed model whose file modification time changed is reloaded.
	// Zero or negative disables watching.
	WatchInterval time.Duration
	// OnReload, when non-nil, observes every completed reload (watcher- or
	// admin-triggered) with the error it produced. Called from the reloading
	// goroutine; keep it fast.
	OnReload func(name string, err error)
	// OnSwap, when non-nil, observes every completed SwapModel (the
	// lifecycle subsystem's in-memory install path) with the error it
	// produced. Called from the swapping goroutine; keep it fast.
	OnSwap func(name string, err error)
	// Obs, when set, exports the registry's counters (router, per-model
	// reload/swap/version, estimate latency) through the shared metrics
	// registry and passes it down to every model's serving engine.
	Obs *obs.Registry
}

// JoinSpec names the equi-join a view was materialized from:
// Left.LeftCol = Right.RightCol over two base-table names.
type JoinSpec struct {
	Left     string `json:"left"`
	LeftCol  string `json:"left_col"`
	Right    string `json:"right"`
	RightCol string `json:"right_col"`
}

// Clause returns the spec as a parsed join clause.
func (s JoinSpec) Clause() workload.JoinClause {
	return workload.JoinClause{LeftTable: s.Left, LeftCol: s.LeftCol, RightTable: s.Right, RightCol: s.RightCol}
}

func (s JoinSpec) String() string { return s.Clause().String() }

// handle pairs one estimator generation with the count of requests pinned to
// it. The write-lock swap in reload guarantees no pin is added after the
// handle leaves the entry, so wg.Wait observes a monotonically draining set.
type handle struct {
	model *core.Model
	est   *serve.Estimator
	wg    sync.WaitGroup
}

// entry is one registered model.
type entry struct {
	name     string
	table    *relation.Table
	join     *JoinSpec  // non-nil for legacy two-table join views
	graph    *graphView // non-nil for join-graph views
	serveCfg serve.Config

	// Mutable state, guarded by Registry.mu: the current estimator
	// generation, the model file ("" for purely in-memory models; SaveModel
	// arms it), and the file's signature at last load (watcher bookkeeping).
	h         *handle
	path      string
	sig       artifact.Sig
	quant     string // plan weight representation ("" f32, "int8"); sticky across reloads/swaps
	planBytes int    // resident packed-plan weight bytes at last install

	reloadMu sync.Mutex // serializes reloads and swaps of this entry

	// Obs-backed lifecycle counters. The instruments survive engine swaps
	// (the entry outlives every handle generation), so the exported series
	// are continuous across reloads and installs.
	reloads *obs.Counter
	swaps   *obs.Counter
	version *obs.Gauge // lifecycle artifact version; 0 until a versioned swap
	estSec  *obs.Histogram
}

// ModelInfo is a snapshot of one registered model for listings and stats.
type ModelInfo struct {
	Name       string         `json:"name"`
	Table      string         `json:"table"`
	Rows       int            `json:"rows"`
	Columns    int            `json:"columns"`
	Join       *JoinSpec      `json:"join,omitempty"`
	Graph      *JoinGraphSpec `json:"graph,omitempty"`
	Path       string         `json:"path,omitempty"`
	ModelBytes int64          `json:"model_bytes"`
	Quant      string         `json:"quant,omitempty"`
	PlanBytes  int            `json:"plan_bytes,omitempty"`
	Reloads    uint64         `json:"reloads"`
	Swaps      uint64         `json:"swaps"`
	Version    int            `json:"version"`
	Serve      serve.Stats    `json:"serve"`
}

// Registry owns named estimators. Create with New, release with Close. All
// methods are safe for concurrent use.
type Registry struct {
	cfg Config

	mu      sync.RWMutex // guards entries, joins, graphs, closed, and handle swaps
	entries map[string]*entry
	joins   map[workload.JoinClause]string // canonical clause -> legacy view name
	graphs  map[string]string              // canonical edge-set key -> graph view name
	closed  bool

	met registryMetrics // router counters + per-model metric families

	watchStop chan struct{}
	watchDone chan struct{}
}

// New creates an empty registry and starts its file watcher when
// cfg.WatchInterval is positive.
func New(cfg Config) *Registry {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	r := &Registry{
		cfg:     cfg,
		entries: make(map[string]*entry),
		joins:   make(map[workload.JoinClause]string),
		graphs:  make(map[string]string),
		met:     newRegistryMetrics(cfg.Obs),
	}
	cfg.Obs.GaugeFunc("duet_registry_models", "Registered models.",
		func() float64 { return float64(r.Len()) })
	if cfg.WatchInterval > 0 {
		r.watchStop = make(chan struct{})
		r.watchDone = make(chan struct{})
		go r.watch(cfg.WatchInterval)
	}
	return r
}

// AddOpts refines Add.
type AddOpts struct {
	// Path overrides the model file location (default <Dir>/<name>.duet).
	// Only meaningful for file-backed models: when Add receives a nil model
	// it loads from this file, and Reload/watching re-read it.
	Path string
	// Join marks the model as a legacy two-table join view over the given
	// inner equi-join; the router resolves matching single-clause join
	// queries to it. Mutually exclusive with Graph.
	Join *JoinSpec
	// Graph marks the model as a join-graph view over the given N-way join
	// tree, materialized with relation.MultiJoin (full outer join with
	// per-table fanout columns). The router resolves queries whose join-
	// clause set matches the edge set — or a connected subset of it, with
	// fanout correction — to it. Register the graph's base tables (by their
	// table names) before the view so subset corrections can compute exact
	// subtree cardinalities. Mutually exclusive with Join.
	Graph *JoinGraphSpec
	// Serve overrides the registry-wide engine configuration for this model
	// (micro-batch size, cache size, admission bounds). Reloads keep the
	// override.
	Serve *serve.Config
	// Quant selects the packed-plan weight representation: "" (float32) or
	// "int8" (per-span symmetric quantization, ~4x smaller resident plan,
	// estimates approximate the f32 plan's). It is serving configuration,
	// not part of the model artifact: reloads and lifecycle swaps re-apply
	// it to each incoming generation, and the plan is warmed at install so
	// the first estimate never pays plan-compile latency.
	Quant string
}

// QuantInt8 is the AddOpts.Quant / manifest value selecting the int8 plan.
const QuantInt8 = "int8"

// applyPlanQuant validates a quant mode, applies it to the model's serving
// plan config, and warms the packed plan, returning its resident weight
// bytes. It runs before a model handle is published, so concurrent readers
// always see a fully built plan.
func applyPlanQuant(m *core.Model, quant string) (int, error) {
	switch quant {
	case "", QuantInt8:
	default:
		return 0, fmt.Errorf("registry: unknown quant mode %q (want \"\" or %q)", quant, QuantInt8)
	}
	m.SetPlanConfig(made.PlanConfig{Quantize: quant == QuantInt8})
	return m.WarmPlan(), nil
}

// Add registers a model for table t under name. With a non-nil model the
// weights are taken as-is (in-memory; pass Path to make it reloadable from a
// later SaveModel). With a nil model the weights are loaded from the model
// file, which also arms hot reload for it. The estimator engine starts
// immediately.
func (r *Registry) Add(name string, t *relation.Table, m *core.Model, opts AddOpts) error {
	if name == "" {
		return errors.New("registry: empty model name")
	}
	if opts.Join != nil && opts.Graph != nil {
		return errors.New("registry: a view is either a legacy two-table join or a join graph, not both")
	}
	var graph *graphView
	if opts.Graph != nil {
		var err error
		if graph, err = newGraphView(*opts.Graph, t); err != nil {
			return err
		}
	}
	path := opts.Path
	if m == nil && path == "" {
		path = artifact.Dir(r.cfg.Dir).Path(name)
	}
	var sig artifact.Sig
	if m == nil {
		var err error
		if m, sig, err = artifact.Load(path, t); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	} else if path != "" {
		// Caller-provided weights with a backing file: record the file's
		// current signature so the watcher only fires on a later change.
		sig, _ = artifact.Stat(path)
	}
	if err := checkServable(m); err != nil {
		return err
	}
	planBytes, err := applyPlanQuant(m, opts.Quant)
	if err != nil {
		return err
	}
	serveCfg := r.cfg.Serve
	if opts.Serve != nil {
		serveCfg = *opts.Serve
	}
	// The engine exports through the registry's metrics registry regardless
	// of any per-model serve override; the model name is the series label.
	serveCfg.Obs = r.cfg.Obs
	serveCfg.ObsModel = name
	e := &entry{
		name:      name,
		table:     t,
		path:      path,
		join:      opts.Join,
		graph:     graph,
		serveCfg:  serveCfg,
		sig:       sig,
		quant:     opts.Quant,
		planBytes: planBytes,
		h:         &handle{model: m, est: serve.New(m, serveCfg)},
		reloads:   r.met.reloads.With(name),
		swaps:     r.met.swaps.With(name),
		version:   r.met.version.With(name),
		estSec:    r.met.estSec.With(name),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		e.h.est.Close()
		return ErrClosed
	}
	if _, dup := r.entries[name]; dup {
		e.h.est.Close()
		return fmt.Errorf("registry: model %q already registered", name)
	}
	if opts.Join != nil {
		key := opts.Join.Clause().Canonical()
		if prev, dup := r.joins[key]; dup {
			e.h.est.Close()
			return fmt.Errorf("registry: join %s already served by view %q", opts.Join, prev)
		}
		if prev, dup := r.graphs[workload.JoinSetKey([]workload.JoinClause{key})]; dup {
			e.h.est.Close()
			return fmt.Errorf("registry: join %s already served by graph view %q", opts.Join, prev)
		}
		r.joins[key] = name
	}
	if graph != nil {
		if prev, dup := r.graphs[graph.key]; dup {
			e.h.est.Close()
			return fmt.Errorf("registry: join graph %s already served by view %q", graph.spec, prev)
		}
		if len(opts.Graph.Edges) == 1 {
			if prev, dup := r.joins[opts.Graph.Edges[0].Clause().Canonical()]; dup {
				e.h.est.Close()
				return fmt.Errorf("registry: join %s already served by view %q", opts.Graph.Edges[0], prev)
			}
		}
		r.bindBaseTablesLocked(graph)
		if graph.sampled {
			// A sampled view's rows are a FOJ sample: every exact anchor —
			// including the full edge set's — comes from the base tables, so
			// all of them must be registered up front.
			var missing []string
			for _, bt := range opts.Graph.Tables {
				if graph.base[bt] == nil {
					missing = append(missing, bt)
				}
			}
			if len(missing) > 0 {
				e.h.est.Close()
				return fmt.Errorf("registry: sampled join-graph view %q anchors estimates on base-table cardinalities; register base tables %s before it",
					name, strings.Join(missing, ", "))
			}
		}
		r.graphs[graph.key] = name
	}
	r.entries[name] = e
	// A model registered from a versioned artifact serves that generation.
	if v := artifact.VersionOf(path); v > 0 {
		e.version.Set(float64(v))
	}
	return nil
}

// checkServable rejects model configurations that cannot sit behind the
// engine's predicate-set-keyed cache (the order-sensitive MPSN ablations).
func checkServable(m *core.Model) error {
	switch m.Config().MPSN {
	case core.MPSNRNN, core.MPSNRec:
		return fmt.Errorf("registry: the %v MPSN embeds predicate lists order-sensitively and cannot sit behind the predicate-set-keyed cache", m.Config().MPSN)
	}
	return nil
}

// SaveModel persists a model's current weights to its file (the Path it was
// registered with, or <Dir>/<name>.duet) atomically, creating parent
// directories as needed, and returns the path written. Saving an in-memory
// model makes it file-backed: the written file becomes its reload and watch
// target.
func (r *Registry) SaveModel(name string) (string, error) {
	e, h, err := r.acquire(name)
	if err != nil {
		return "", err
	}
	defer h.wg.Done()
	r.mu.RLock()
	path := e.path
	r.mu.RUnlock()
	if path == "" {
		path = artifact.Dir(r.cfg.Dir).Path(name)
	}
	if err := artifact.Save(path, h.model); err != nil {
		return "", err
	}
	sig, err := artifact.Stat(path)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	e.path, e.sig = path, sig
	r.mu.Unlock()
	return path, nil
}

// lookupLocked finds a registered model's entry. Callers hold r.mu.
func (r *Registry) lookupLocked(name string) (*entry, error) {
	if r.closed {
		return nil, ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown model %q", name)
	}
	return e, nil
}

// acquire pins the current handle of a named model. The pin is taken under
// the read lock, so it strictly precedes any subsequent swap; callers must
// h.wg.Done when finished with the estimator.
func (r *Registry) acquire(name string) (*entry, *handle, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, err := r.lookupLocked(name)
	if err != nil {
		return nil, nil, err
	}
	e.h.wg.Add(1)
	return e, e.h, nil
}

// Table returns the table a named model serves.
func (r *Registry) Table(name string) (*relation.Table, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, err := r.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	return e.table, nil
}

// Names lists registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Info snapshots every registered model, sorted by name. It still works
// after Close (for final logging), reading the last generation's counters.
func (r *Registry) Info() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.entries))
	handles := make([]*handle, 0, len(r.entries))
	// Pin each generation like a request would, so a concurrent reload
	// cannot close an estimator mid-snapshot. After Close no pins may be
	// added (Close's drain is already underway), but none are needed either:
	// handles are final then, and Stats on a closed engine reads atomics.
	pinned := !r.closed
	for _, e := range r.entries {
		mi := ModelInfo{
			Name:      e.name,
			Table:     e.table.Name,
			Rows:      e.table.NumRows(),
			Columns:   e.table.NumCols(),
			Join:      e.join,
			Path:      e.path,
			Quant:     e.quant,
			PlanBytes: e.planBytes,
			Reloads:   e.reloads.Value(),
			Swaps:     e.swaps.Value(),
			Version:   int(e.version.Value()),
		}
		if e.graph != nil {
			spec := e.graph.spec
			mi.Graph = &spec
		}
		out = append(out, mi)
		if pinned {
			e.h.wg.Add(1)
		}
		handles = append(handles, e.h)
	}
	r.mu.RUnlock()
	for i := range out {
		out[i].ModelBytes = handles[i].model.SizeBytes()
		out[i].Serve = handles[i].est.Stats()
		if pinned {
			handles[i].wg.Done()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelStats is one model's slice of a Stats snapshot: the serving-engine
// counters plus the lifecycle identity (artifact version, swap and reload
// counts) taken in the same generation-pinned pass, so the pair is coherent —
// a version never reports with the previous generation's engine counters.
type ModelStats struct {
	serve.Stats
	Version int    `json:"version"`
	Swaps   uint64 `json:"swaps"`
	Reloads uint64 `json:"reloads"`
}

// Stats aggregates router counters and per-model engine stats.
type Stats struct {
	Models     int                   `json:"models"`
	Routed     uint64                `json:"routed"`
	JoinRouted uint64                `json:"join_routed"`
	PerModel   map[string]ModelStats `json:"per_model"`
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	info := r.Info()
	s := Stats{Models: len(info), Routed: r.met.routed.Value(), JoinRouted: r.met.joinRouted.Value(),
		PerModel: make(map[string]ModelStats, len(info))}
	for _, mi := range info {
		s.PerModel[mi.Name] = ModelStats{Stats: mi.Serve, Version: mi.Version, Swaps: mi.Swaps, Reloads: mi.Reloads}
	}
	return s
}

// Reload atomically replaces a file-backed model with the weights currently
// in its file. The replacement estimator is built before the swap; requests
// pinned to the old generation drain before its engine closes, so no
// in-flight estimate is dropped. In-memory models (no path) cannot reload.
func (r *Registry) Reload(name string) error {
	err := r.reload(name)
	if cb := r.cfg.OnReload; cb != nil {
		cb(name, err)
	}
	return err
}

func (r *Registry) reload(name string) error {
	r.mu.RLock()
	e, err := r.lookupLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	r.mu.RLock()
	path := e.path
	r.mu.RUnlock()
	if path == "" {
		return fmt.Errorf("registry: model %q is in-memory and cannot be reloaded", name)
	}
	m, sig, err := artifact.Load(path, e.table)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return r.install(e, m, e.reloads, func() { e.sig = sig })
}

// install publishes m as e's next generation: the one sequence Reload,
// SwapModel and so the lifecycle's retrains and the cluster's pulls go
// through. The entry's quant mode is serving config, not artifact state, so
// every incoming generation gets it re-applied and its plan warmed before the
// handle is published; publish updates, under the same write lock, the entry
// state that changes with the generation. Callers hold e.reloadMu.
func (r *Registry) install(e *entry, m *core.Model, count *obs.Counter, publish func()) error {
	if err := checkServable(m); err != nil {
		return err
	}
	planBytes, err := applyPlanQuant(m, e.quant)
	if err != nil {
		return err
	}
	nh := &handle{model: m, est: serve.New(m, e.serveCfg)}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		nh.est.Close()
		return ErrClosed
	}
	old := e.h
	e.h, e.planBytes = nh, planBytes
	publish()
	r.mu.Unlock()
	count.Add(1)
	// Drain: every request that pinned the old generation did so before the
	// swap above; wait them out, then release the old engine.
	old.wg.Wait()
	old.est.Close()
	return nil
}

// bindBaseTablesLocked snapshots the registered base tables a graph view's
// subset fanout correction needs: prefer the model registered under the base
// table's name, falling back to any model serving a table of that name.
// Callers hold r.mu for writing.
func (r *Registry) bindBaseTablesLocked(graph *graphView) {
	for bt := range graph.tables {
		if be, ok := r.entries[bt]; ok && be.join == nil && be.graph == nil && be.table.Name == bt {
			graph.base[bt] = be.table
			continue
		}
		for _, be := range r.entries {
			if be.join == nil && be.graph == nil && be.table.Name == bt {
				graph.base[bt] = be.table
				break
			}
		}
	}
}

// rebindGraphViewsLocked replaces the routing state of every graph view that
// references the named base table: a fresh graphView (empty exact-cardinality
// anchor cache, fresh per-edge indexes) over the unchanged view table, with
// base tables re-bound to the entries now serving. In-flight Resolves keep
// the view object they pinned — consistent with the generation they started
// against — and the next Resolve anchors on the swapped table. Rebuild cost
// is O(view columns); no row data is touched. Callers hold r.mu for writing.
func (r *Registry) rebindGraphViewsLocked(table string) {
	for _, ge := range r.entries {
		if ge.graph == nil || !ge.graph.tables[table] {
			continue
		}
		fresh, err := newGraphView(ge.graph.spec, ge.graph.view)
		if err != nil {
			// The spec and view validated when the entry was added (and at
			// every swap of the view itself); keep the stale anchors rather
			// than dropping the view.
			continue
		}
		r.bindBaseTablesLocked(fresh)
		ge.graph = fresh
	}
}

// SwapOpts refines SwapModel.
type SwapOpts struct {
	// Path, when set, is recorded as the entry's model file — its reload and
	// watch target — without re-reading it (the weights were just installed
	// from memory). The file's current size and mtime are snapshotted so the
	// watcher does not re-trigger on the swap's own save.
	Path string
	// Version, when positive, records the lifecycle artifact version the
	// installed weights came from; it surfaces in ModelInfo, Stats, and the
	// /v1/models listing so operators and the cluster rollout can tell which
	// generation each replica serves.
	Version int
}

// SwapModel atomically replaces a registered model — and the table it
// serves, which becomes m.Table() — with in-memory state, no disk round
// trip. It is the lifecycle subsystem's install path: a background retrain
// builds the replacement off-line (typically over a table grown by ingested
// rows, whose dictionaries the old generation could not serve) and swaps
// table and model together, which is what keeps every generation internally
// consistent. Drain-safety matches Reload: the handle swaps under the write
// lock, and requests pinned to the old generation complete against it before
// its engine closes, so no in-flight estimate is dropped or errored.
// Join-graph views rebuild their routing state against the new view table;
// the new table must keep the served table's name so router inference and
// textual predicate qualifiers stay valid.
func (r *Registry) SwapModel(name string, m *core.Model, opts SwapOpts) error {
	err := r.swapModel(name, m, opts)
	if cb := r.cfg.OnSwap; cb != nil {
		cb(name, err)
	}
	return err
}

func (r *Registry) swapModel(name string, m *core.Model, opts SwapOpts) error {
	if m == nil {
		return errors.New("registry: SwapModel needs a model")
	}
	r.mu.RLock()
	e, err := r.lookupLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	nt := m.Table()
	if nt.Name != e.table.Name {
		return fmt.Errorf("registry: swap %q: model serves table %q, entry serves %q", name, nt.Name, e.table.Name)
	}
	var graph *graphView
	if e.graph != nil {
		if graph, err = newGraphView(e.graph.spec, nt); err != nil {
			return fmt.Errorf("registry: swap %q: %w", name, err)
		}
	}
	var sig artifact.Sig
	if opts.Path != "" {
		sig, _ = artifact.Stat(opts.Path)
	}
	return r.install(e, m, e.swaps, func() {
		e.table = nt
		if graph != nil {
			r.bindBaseTablesLocked(graph)
			e.graph = graph
		}
		if e.join == nil && e.graph == nil {
			// A base table changed underneath the graph views that anchor on it:
			// their cached exact-cardinality corrections, per-edge join indexes,
			// and base-table bindings all describe the replaced table. Rebuild
			// each affected view's routing state so the next Resolve recomputes
			// anchors against the table now serving.
			r.rebindGraphViewsLocked(nt.Name)
		}
		if opts.Path != "" {
			e.path, e.sig = opts.Path, sig
		}
		if opts.Version > 0 {
			e.version.Set(float64(opts.Version))
		}
	})
}

// CloneModelFor pins the named model's current generation and clones it onto
// t (core.Model.CloneFor): the read-only weight copy a lifecycle fine-tune
// starts from. The clone shares no state with the serving model; the error
// reports encoding incompatibility when t's dictionaries grew past the
// trained profile, which is the signal to train a fresh model instead.
func (r *Registry) CloneModelFor(name string, t *relation.Table) (*core.Model, error) {
	_, h, err := r.acquire(name)
	if err != nil {
		return nil, err
	}
	defer h.wg.Done()
	return h.model.CloneFor(t)
}

// Close stops the watcher and drains and closes every estimator. Subsequent
// registry calls return ErrClosed. Close is idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	handles := make([]*handle, 0, len(r.entries))
	for _, e := range r.entries {
		handles = append(handles, e.h)
	}
	r.mu.Unlock()
	if r.watchStop != nil {
		close(r.watchStop)
		<-r.watchDone
	}
	for _, h := range handles {
		h.wg.Wait()
		h.est.Close()
	}
	return nil
}
