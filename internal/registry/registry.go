// Package registry is the multi-tenant serving layer: a concurrency-safe
// collection of named Duet estimators — base tables and join views — each
// wrapped in the internal/serve batching engine, with model persistence
// (internal/artifact against a model directory), atomic hot reload, and a
// join-aware router that resolves textual queries to the right estimator.
//
// Hot reload is drain-safe. A model's table, join-graph routing state,
// weights and engine are one immutable generation; every request pins the
// generation it is routed on under the registry's read lock and is estimated
// on it. A reload or swap builds the next generation off-line, publishes it
// under the write lock (so no new request can pin the old one afterwards),
// then waits for the old generation's pins to drain before closing its
// engine. A request therefore always completes against the generation it
// was routed on — no reload, swap or watcher poll can make an in-flight
// estimate fail, disappear, or read another generation's predicate codes.
package registry

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// selects the engine defaults (batch 64, 4096-entry cache).
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

// generation is one immutable serving state of a registered model, plus the
// count of requests pinned to it. Pins are taken under the read lock and
// install swaps the generation out under the write lock, so no pin is added
// after it leaves its entry and pins.Wait observes a draining set.
type generation struct {
	table     *relation.Table // predicate codes resolve against its dictionaries
	graph     *graphView      // nil unless the entry is a join-graph view
	model     *core.Model
	est       *serve.Estimator
	planBytes int
	estSec    *obs.Histogram // the entry's, continuous across generations
	pins      sync.WaitGroup
}

// release drops one pin.
func (g *generation) release() { g.pins.Done() }

// entry is one registered model: what outlives every generation of it.
type entry struct {
	name     string
	join     *JoinSpec // non-nil for legacy two-table join views
	serveCfg serve.Config
	quant    string // plan weight representation ("" f32, "int8"); re-applied to every generation

	// gen is written holding both reloadMu and Registry.mu, so either one
	// suffices to read it. The model file ("" for purely in-memory models;
	// SaveModel arms it) and its signature at last load (watcher
	// bookkeeping) are guarded by Registry.mu.
	gen  *generation
	path string
	sig  artifact.Sig

	reloadMu sync.Mutex // serializes reloads and swaps of this entry

	// Obs-backed lifecycle counters. The instruments outlive every
	// generation, so the exported series are continuous across reloads and
	// installs.
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

	mu      sync.RWMutex // guards entries, joins, graphs, closed, and generation swaps
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
	// fanout correction — to it. Subset corrections compute exact subtree
	// cardinalities from the graph's base tables, registered under their
	// table names and looked up when a query routes (a sampled view's must be
	// registered before it). Mutually exclusive with Join.
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
// bytes. It runs before a generation is published, so concurrent readers
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
	serveCfg := r.cfg.Serve
	if opts.Serve != nil {
		serveCfg = *opts.Serve
	}
	// The engine exports through the registry's metrics registry regardless
	// of any per-model serve override; the model name is the series label.
	serveCfg.Obs = r.cfg.Obs
	serveCfg.ObsModel = name
	e := &entry{
		name:     name,
		join:     opts.Join,
		serveCfg: serveCfg,
		quant:    opts.Quant,
		path:     path,
		sig:      sig,
		reloads:  r.met.reloads.With(name),
		swaps:    r.met.swaps.With(name),
		version:  r.met.version.With(name),
		estSec:   r.met.estSec.With(name),
	}
	g, err := newGeneration(e, t, graph, m)
	if err != nil {
		return err
	}
	e.gen = g
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.registerLocked(e); err != nil {
		g.est.Close()
		return err
	}
	// A model registered from a versioned artifact serves that generation.
	if v := artifact.VersionOf(path); v > 0 {
		e.version.Set(float64(v))
	}
	return nil
}

// registerLocked indexes a built entry. Callers hold r.mu for writing.
func (r *Registry) registerLocked(e *entry) error {
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("registry: model %q already registered", e.name)
	}
	if e.join != nil {
		key := e.join.Clause().Canonical()
		if prev, dup := r.joins[key]; dup {
			return fmt.Errorf("registry: join %s already served by view %q", e.join, prev)
		}
		if prev, dup := r.graphs[workload.JoinSetKey([]workload.JoinClause{key})]; dup {
			return fmt.Errorf("registry: join %s already served by graph view %q", e.join, prev)
		}
		r.joins[key] = e.name
	}
	if graph := e.gen.graph; graph != nil {
		if prev, dup := r.graphs[graph.key]; dup {
			return fmt.Errorf("registry: join graph %s already served by view %q", graph.spec, prev)
		}
		if edges := graph.spec.Edges; len(edges) == 1 {
			if prev, dup := r.joins[edges[0].Clause().Canonical()]; dup {
				return fmt.Errorf("registry: join %s already served by view %q", edges[0], prev)
			}
		}
		if graph.sampled {
			// A sampled view's rows are a FOJ sample: every exact anchor —
			// including the full edge set's — comes from the base tables, so
			// all of them must be registered up front.
			base := r.baseTablesLocked(graph.spec.Tables)
			var missing []string
			for _, bt := range graph.spec.Tables {
				if base[bt] == nil {
					missing = append(missing, bt)
				}
			}
			if len(missing) > 0 {
				return fmt.Errorf("registry: sampled join-graph view %q anchors estimates on base-table cardinalities; register base tables %s before it",
					e.name, strings.Join(missing, ", "))
			}
		}
		r.graphs[graph.key] = e.name
	}
	r.entries[e.name] = e
	return nil
}

// newGeneration checks that m can serve, applies e's plan quant mode, warms
// the plan and starts the engine: readers only ever see a built generation.
func newGeneration(e *entry, t *relation.Table, graph *graphView, m *core.Model) (*generation, error) {
	if err := m.Servable(); err != nil {
		return nil, err
	}
	planBytes, err := applyPlanQuant(m, e.quant)
	if err != nil {
		return nil, err
	}
	return &generation{table: t, graph: graph, model: m, est: serve.New(m, e.serveCfg), planBytes: planBytes, estSec: e.estSec}, nil
}

// baseTablesLocked looks up the base tables graph views anchor exact join
// sizes on: prefer the plain (non-view) model registered under the table's
// name, falling back to any plain model serving a table of that name.
// Callers hold r.mu.
func (r *Registry) baseTablesLocked(names []string) map[string]*relation.Table {
	plain := func(e *entry, name string) bool {
		return e.join == nil && e.gen.graph == nil && e.gen.table.Name == name
	}
	base := make(map[string]*relation.Table, len(names))
	for _, bt := range names {
		if e, ok := r.entries[bt]; ok && plain(e, bt) {
			base[bt] = e.gen.table
			continue
		}
		for _, e := range r.entries {
			if plain(e, bt) {
				base[bt] = e.gen.table
				break
			}
		}
	}
	return base
}

// SaveModel persists a model's current weights to its file (the Path it was
// registered with, or <Dir>/<name>.duet) atomically, creating parent
// directories as needed, and returns the path written. Saving an in-memory
// model makes it file-backed: the written file becomes its reload and watch
// target.
func (r *Registry) SaveModel(name string) (string, error) {
	e, g, err := r.acquire(name)
	if err != nil {
		return "", err
	}
	defer g.release()
	r.mu.RLock()
	path := e.path
	r.mu.RUnlock()
	if path == "" {
		path = artifact.Dir(r.cfg.Dir).Path(name)
	}
	if err := artifact.Save(path, g.model); err != nil {
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

// pinLocked finds a registered model and pins its current generation; the
// caller releases it when done. Callers hold r.mu.
func (r *Registry) pinLocked(name string) (*entry, *generation, error) {
	e, err := r.lookupLocked(name)
	if err != nil {
		return nil, nil, err
	}
	g := e.gen
	g.pins.Add(1)
	return e, g, nil
}

// acquire pins the current generation of a named model.
func (r *Registry) acquire(name string) (*entry, *generation, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pinLocked(name)
}

// Table returns the table a named model serves.
func (r *Registry) Table(name string) (*relation.Table, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, err := r.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	return e.gen.table, nil
}

// Names lists registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.entries))
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
	gens := make([]*generation, 0, len(r.entries))
	// Pin each generation like a request would, so a concurrent reload
	// cannot close an estimator mid-snapshot. After Close no pins may be
	// added (Close's drain is already underway), but none are needed either:
	// generations are final then, and Stats on a closed engine reads atomics.
	pinned := !r.closed
	for _, e := range r.entries {
		g := e.gen
		mi := ModelInfo{
			Name:      e.name,
			Table:     g.table.Name,
			Rows:      g.table.NumRows(),
			Columns:   g.table.NumCols(),
			Join:      e.join,
			Path:      e.path,
			Quant:     e.quant,
			PlanBytes: g.planBytes,
			Reloads:   e.reloads.Value(),
			Swaps:     e.swaps.Value(),
			Version:   int(e.version.Value()),
		}
		if g.graph != nil {
			spec := g.graph.spec
			mi.Graph = &spec
		}
		out = append(out, mi)
		if pinned {
			g.pins.Add(1)
		}
		gens = append(gens, g)
	}
	r.mu.RUnlock()
	for i, g := range gens {
		out[i].ModelBytes = g.model.SizeBytes()
		out[i].Serve = g.est.Stats()
		if pinned {
			g.release()
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
	cur := e.gen
	m, sig, err := artifact.Load(path, cur.table)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	next, err := newGeneration(e, cur.table, cur.graph, m)
	if err != nil {
		return err
	}
	return r.install(e, next, e.reloads, SwapOpts{Path: path}, sig)
}

// install publishes next as e's generation: the one sequence Reload,
// SwapModel and so the lifecycle's retrains and the cluster's pulls go
// through. Under the same write lock it records from.Path (with signature
// sig) and from.Version, when set. Callers hold e.reloadMu.
func (r *Registry) install(e *entry, next *generation, count *obs.Counter, from SwapOpts, sig artifact.Sig) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		next.est.Close()
		return ErrClosed
	}
	old := e.gen
	e.gen = next
	if from.Path != "" {
		e.path, e.sig = from.Path, sig
	}
	if from.Version > 0 {
		e.version.Set(float64(from.Version))
	}
	r.mu.Unlock()
	count.Add(1)
	// Drain: every request that pinned the old generation did so before the
	// swap above; wait them out, then release the old engine.
	old.pins.Wait()
	old.est.Close()
	return nil
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
// table and model together as one generation, which is what keeps every
// generation internally consistent. Drain-safety matches Reload: the
// generation swaps under the write lock, and requests pinned to the old one
// complete against it before its engine closes, so no in-flight estimate is
// dropped or errored. A join-graph view's routing state is rebuilt against
// the new view table; the new table must keep the served table's name so
// router inference and textual predicate qualifiers stay valid.
func (r *Registry) SwapModel(name string, m *core.Model, opts SwapOpts) error {
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
	cur, nt := e.gen, m.Table()
	if nt.Name != cur.table.Name {
		return fmt.Errorf("registry: swap %q: model serves table %q, entry serves %q", name, nt.Name, cur.table.Name)
	}
	var graph *graphView
	if cur.graph != nil {
		if graph, err = newGraphView(cur.graph.spec, nt); err != nil {
			return fmt.Errorf("registry: swap %q: %w", name, err)
		}
	}
	next, err := newGeneration(e, nt, graph, m)
	if err != nil {
		return err
	}
	var sig artifact.Sig
	if opts.Path != "" {
		sig, _ = artifact.Stat(opts.Path)
	}
	return r.install(e, next, e.swaps, opts, sig)
}

// CloneModelFor pins the named model's current generation and clones it onto
// t (core.Model.CloneFor): the read-only weight copy a lifecycle fine-tune
// starts from. The clone shares no state with the serving model; the error
// reports encoding incompatibility when t's dictionaries grew past the
// trained profile, which is the signal to train a fresh model instead.
func (r *Registry) CloneModelFor(name string, t *relation.Table) (*core.Model, error) {
	_, g, err := r.acquire(name)
	if err != nil {
		return nil, err
	}
	defer g.release()
	return g.model.CloneFor(t)
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
	gens := make([]*generation, 0, len(r.entries))
	for _, e := range r.entries {
		gens = append(gens, e.gen)
	}
	r.mu.Unlock()
	if r.watchStop != nil {
		close(r.watchStop)
		<-r.watchDone
	}
	for _, g := range gens {
		g.pins.Wait()
		g.est.Close()
	}
	return nil
}
