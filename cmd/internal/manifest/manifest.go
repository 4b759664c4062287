// Package manifest is the deployment manifest's schema: the base tables and
// join views a deployment serves, with their weights files, training epochs,
// plan quantization and engine settings, plus the lifecycle, fleet and SLO
// blocks. duetserve serves a manifest; duettrain trains its join views offline,
// building their tables and views with the same code.
package manifest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"duet"
	"duet/internal/relation"
	"duet/internal/serve"
)

// Manifest describes a multi-model deployment: base-table models plus join
// views, each optionally backed by a model file under the model directory,
// and — optionally — the lifecycle policy that keeps them retrained.
type Manifest struct {
	// Models are base-table estimators.
	Models []ModelSpec `json:"models"`
	// Joins are join views over base tables Models declares.
	Joins []JoinViewSpec `json:"joins"`
	// Lifecycle, when present, enables the drift-aware background retraining
	// subsystem over every manifest model: POST /ingest appends rows, POST
	// /feedback records observed cardinalities, and when a threshold trips
	// the model retrains in the background and hot-swaps with zero dropped
	// requests. Each retrained generation lands in the model directory as a
	// versioned model file, and a restart loads the newest one that fits.
	Lifecycle *LifecycleSpec `json:"lifecycle,omitempty"`
	// Cluster, when present, describes the replica fleet this manifest is
	// deployed across. Replicas ignore it; a proxy (-proxy) reads it for the
	// member list, replication factor, and health-check cadence, so one
	// manifest file can configure the whole fleet.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Budgets maps stage names (admission_wait, cache_lookup, batch_wait,
	// plan_exec, route, forward) to per-stage SLO budgets as Go duration
	// strings ("2ms", "500us"). Stages listed here override the roofline-
	// derived defaults; "0s" disables a stage's check.
	Budgets StageBudgets `json:"budgets,omitempty"`
}

// ClusterSpec is the manifest's fleet block, read by -proxy.
type ClusterSpec struct {
	// Members are the replicas' base URLs ("http://host:port").
	Members []string `json:"members"`
	// Replication is how many replicas serve each model (default 2, clamped
	// to the member count).
	Replication int `json:"replication,omitempty"`
	// VNodes per member on the placement ring (default 64).
	VNodes int `json:"vnodes,omitempty"`
	// Health tunes member probing.
	Health *HealthSpec `json:"health,omitempty"`
}

// HealthSpec is the proxy's probe configuration in manifest form.
type HealthSpec struct {
	// IntervalMS between probe rounds (default 2000).
	IntervalMS int `json:"interval_ms,omitempty"`
	// TimeoutMS per probe (default half the interval).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// FailAfter consecutive failures mark a member down (default 2).
	FailAfter int `json:"fail_after,omitempty"`
	// RiseAfter consecutive successes mark it back up (default 2).
	RiseAfter int `json:"rise_after,omitempty"`
}

// HealthConfig renders the block's health probing as a checker configuration.
func (cs *ClusterSpec) HealthConfig() duet.ClusterHealthConfig {
	if cs.Health == nil {
		return duet.ClusterHealthConfig{}
	}
	return duet.ClusterHealthConfig{
		Interval:  time.Duration(cs.Health.IntervalMS) * time.Millisecond,
		Timeout:   time.Duration(cs.Health.TimeoutMS) * time.Millisecond,
		FailAfter: cs.Health.FailAfter,
		RiseAfter: cs.Health.RiseAfter,
	}
}

// LifecycleSpec is the manifest's lifecycle policy block. Zero fields keep
// the supervisor defaults; a threshold of 0 disables that signal.
type LifecycleSpec struct {
	// MaxMedianQErr trips retraining when the rolling median q-error of
	// feedback observations exceeds it.
	MaxMedianQErr float64 `json:"max_median_qerr,omitempty"`
	// MinFeedback is the observation count required before the feedback
	// signal may trip (default 16).
	MinFeedback int `json:"min_feedback,omitempty"`
	// FeedbackWindow caps the rolling feedback window (default 256).
	FeedbackWindow int `json:"feedback_window,omitempty"`
	// MaxColumnDrift trips retraining when any column's total-variation
	// distance between ingested rows and the trained snapshot exceeds it.
	MaxColumnDrift float64 `json:"max_column_drift,omitempty"`
	// MinAppended is the ingested-row count required before the data signal
	// may trip (default 64).
	MinAppended int `json:"min_appended,omitempty"`
	// MinIntervalS is the minimum seconds between retrains of one model.
	MinIntervalS float64 `json:"min_interval_s,omitempty"`
	// MaxConcurrent bounds simultaneous retrains across models (default 1).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// TrainEpochs overrides the full-retrain epoch count.
	TrainEpochs int `json:"train_epochs,omitempty"`
	// FineTuneSteps overrides the fine-tune gradient step count.
	FineTuneSteps int `json:"finetune_steps,omitempty"`
	// CheckIntervalMS is the worker poll interval in milliseconds.
	CheckIntervalMS int `json:"check_interval_ms,omitempty"`
}

// Policy renders the block as a supervisor policy.
func (ls *LifecycleSpec) Policy() duet.LifecyclePolicy {
	pol := duet.LifecyclePolicy{
		MaxMedianQErr:  ls.MaxMedianQErr,
		MinFeedback:    ls.MinFeedback,
		FeedbackWindow: ls.FeedbackWindow,
		MaxColumnDrift: ls.MaxColumnDrift,
		MinAppended:    ls.MinAppended,
		MinInterval:    time.Duration(ls.MinIntervalS * float64(time.Second)),
		MaxConcurrent:  ls.MaxConcurrent,
		TrainEpochs:    ls.TrainEpochs,
		CheckInterval:  time.Duration(ls.CheckIntervalMS) * time.Millisecond,
	}
	if ls.FineTuneSteps > 0 {
		ft := duet.DefaultFineTuneConfig()
		ft.Steps = ls.FineTuneSteps
		pol.FineTune = ft
	}
	return pol
}

// ServeSpec sets the serving-engine configuration of one manifest entry.
// Zero fields keep the engine default; a negative cache disables caching
// (the engine's convention).
type ServeSpec struct {
	// Batch caps the micro-batch size.
	Batch int `json:"batch,omitempty"`
	// Cache is the LRU result-cache capacity in entries; negative disables.
	Cache int `json:"cache,omitempty"`
	// QPS caps this model's sustained query rate; excess requests shed with
	// HTTP 429 and a Retry-After hint. 0 disables rate limiting.
	QPS float64 `json:"qps,omitempty"`
	// Burst is the token-bucket depth over QPS (default max(1, qps)).
	Burst int `json:"burst,omitempty"`
	// MaxQueue bounds the calls parked behind a running forward pass; when
	// full, requests shed immediately instead of parking. 0 leaves the
	// backlog unbounded.
	MaxQueue int `json:"max_queue,omitempty"`
}

// validate rejects nonsense admission bounds up front, where the manifest
// line is still known, instead of at first request.
func (s *ServeSpec) validate(owner string) error {
	if s == nil {
		return nil
	}
	if s.QPS < 0 || s.Burst < 0 || s.MaxQueue < 0 {
		return fmt.Errorf("model %q: qps, burst, and max_queue must be >= 0", owner)
	}
	return nil
}

// Config renders the block as an engine configuration; the engine fills in
// its defaults for unset fields.
func (s *ServeSpec) Config() *duet.ServeConfig {
	if s == nil {
		return nil
	}
	cfg := duet.ServeConfig{MaxBatch: s.Batch, CacheSize: s.Cache}
	cfg.Admission.QPS = s.QPS
	cfg.Admission.Burst = s.Burst
	cfg.Admission.MaxQueue = s.MaxQueue
	return &cfg
}

// ModelSpec declares one base-table model. The table comes from a CSV file,
// a packed .duetcol columnar file (a "csv" path with that suffix is opened
// through the memory-mapped column store instead of parsed, so base tables
// larger than RAM serve off the page cache), or a built-in synthetic
// generator. Weights come from the model file when it exists; otherwise the
// model is trained in-process for TrainEpochs (data-only) and saved there
// for next time. When lifecycle is enabled, a .duetcol-backed model compacts
// its ingest tail back into the columnar file on every retrain.
type ModelSpec struct {
	Name string `json:"name"`
	CSV  string `json:"csv,omitempty"`
	Syn  string `json:"syn,omitempty"`
	Rows int    `json:"rows,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Model is the weights file, relative to the model directory (default
	// <name>.duet). An existing file is loaded and hot-reload-watched.
	Model string `json:"model,omitempty"`
	// TrainEpochs trains in-process when no weights file exists. Default 3.
	TrainEpochs *int `json:"train_epochs,omitempty"`
	// Large selects the DMV-sized architecture.
	Large bool `json:"large,omitempty"`
	// Serve sets the engine configuration for this model.
	Serve *ServeSpec `json:"serve,omitempty"`
	// Quant selects the packed-plan weight representation: "" (float32) or
	// "int8". Serving configuration only — the weights file stays float32 and
	// reloads/lifecycle swaps re-apply the mode to each generation.
	Quant string `json:"quant,omitempty"`
}

// validQuant rejects unknown plan quantization modes at manifest load.
func validQuant(owner, quant string) error {
	switch quant {
	case "", duet.QuantInt8:
		return nil
	}
	return fmt.Errorf("model %q: unknown quant mode %q (want \"\" or %q)", owner, quant, duet.QuantInt8)
}

// JoinViewSpec declares one join view over tables named in Models.
//
// The two-table form (left/left_col/right/right_col) materializes the inner
// equi-join Left.LeftCol = Right.RightCol with relation.EquiJoin — the
// legacy layout, still read and routed exactly as before.
//
// The join-graph form (tables + edges) materializes the full outer join of
// an N-table join tree with per-base-table fanout columns
// (relation.MultiJoin); the router answers any connected subset of its edges
// with fanout-corrected estimates. The two forms are mutually exclusive.
//
// A join-graph entry with "sample": N switches to sampled materialization:
// instead of the full outer join, N rows are drawn uniformly from it
// (identical column layout and dictionaries, so existing weight files keep
// loading), the in-process training streams fresh draws, and the registry
// anchors every estimate on exact base-table join cardinalities. Use it when
// the join is too large to materialize; the sample draw is deterministic
// (seed 1), so restarts rebuild the same table.
type JoinViewSpec struct {
	Name string `json:"name"`
	// Legacy two-table form: left/left_col/right/right_col.
	duet.JoinEdge
	// Join-graph form: tables[0] roots the tree; edges must connect every
	// table (len(tables)-1 of them). Sample > 0 selects sampled
	// materialization with that budget.
	Tables []string        `json:"tables,omitempty"`
	Edges  []duet.JoinEdge `json:"edges,omitempty"`
	Sample int             `json:"sample,omitempty"`

	Model string `json:"model,omitempty"`
	// TrainEpochs trains the join model in-process when no weights file
	// exists. Default 3. duettrain -join trains it with its own flags.
	TrainEpochs *int `json:"train_epochs,omitempty"`
	// Large selects the DMV-sized architecture, in duetserve and duettrain.
	Large bool       `json:"large,omitempty"`
	Serve *ServeSpec `json:"serve,omitempty"`
	Quant string     `json:"quant,omitempty"`
}

// Graph reports whether the spec uses the join-graph form.
func (js JoinViewSpec) Graph() bool { return len(js.Tables) > 0 || len(js.Edges) > 0 }

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, data)
}

// parse decodes and validates a manifest's bytes; path names it in errors.
func parse(path string, data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if len(m.Models) == 0 && m.Cluster == nil {
		return nil, fmt.Errorf("manifest %s: no models", path)
	}
	if cs := m.Cluster; cs != nil {
		if len(cs.Members) == 0 {
			return nil, fmt.Errorf("manifest %s: cluster needs at least one member", path)
		}
		seen := map[string]bool{}
		for _, mem := range cs.Members {
			if mem == "" || seen[mem] {
				return nil, fmt.Errorf("manifest %s: cluster members must be distinct non-empty URLs, got %q", path, mem)
			}
			seen[mem] = true
		}
		if cs.Replication < 0 || cs.VNodes < 0 {
			return nil, fmt.Errorf("manifest %s: cluster replication and vnodes must be >= 0", path)
		}
	}
	if ls := m.Lifecycle; ls != nil {
		if ls.MaxMedianQErr < 0 || ls.MaxColumnDrift < 0 || ls.MinIntervalS < 0 {
			return nil, fmt.Errorf("manifest %s: lifecycle thresholds must be >= 0", path)
		}
		if ls.MaxColumnDrift > 1 {
			return nil, fmt.Errorf("manifest %s: lifecycle max_column_drift is a total-variation distance in [0,1], got %v", path, ls.MaxColumnDrift)
		}
		if ls.MaxMedianQErr == 0 && ls.MaxColumnDrift == 0 {
			return nil, fmt.Errorf("manifest %s: lifecycle needs max_median_qerr or max_column_drift > 0; with both disabled it would never retrain", path)
		}
	}
	names := map[string]bool{}
	for _, ms := range m.Models {
		if ms.Name == "" {
			return nil, fmt.Errorf("manifest %s: model with empty name", path)
		}
		if names[ms.Name] {
			return nil, fmt.Errorf("manifest %s: duplicate model %q", path, ms.Name)
		}
		names[ms.Name] = true
		if err := ms.Serve.validate(ms.Name); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", path, err)
		}
		if err := validQuant(ms.Name, ms.Quant); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", path, err)
		}
	}
	for _, js := range m.Joins {
		if js.Name == "" || names[js.Name] {
			return nil, fmt.Errorf("manifest %s: join view needs a fresh name, got %q", path, js.Name)
		}
		names[js.Name] = true
		if err := js.Serve.validate(js.Name); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", path, err)
		}
		if err := validQuant(js.Name, js.Quant); err != nil {
			return nil, fmt.Errorf("manifest %s: %w", path, err)
		}
		if js.Sample < 0 {
			return nil, fmt.Errorf("manifest %s: join %q sample budget must be >= 0, got %d", path, js.Name, js.Sample)
		}
		if js.Graph() {
			if js.JoinEdge != (duet.JoinEdge{}) {
				return nil, fmt.Errorf("manifest %s: join %q mixes the two-table form with tables/edges", path, js.Name)
			}
			if _, err := relation.SpanningTree(js.Tables, js.Edges); err != nil {
				return nil, fmt.Errorf("manifest %s: join %q: %w", path, js.Name, err)
			}
			for _, t := range js.Tables {
				if !names[t] {
					return nil, fmt.Errorf("manifest %s: join %q references unknown table %q", path, js.Name, t)
				}
			}
			continue
		}
		if js.Sample > 0 {
			return nil, fmt.Errorf("manifest %s: join %q: \"sample\" applies only to the join-graph form (tables/edges); the two-table form materializes an inner equi-join and cannot be sampled", path, js.Name)
		}
		if !names[js.LeftTable] || !names[js.RightTable] {
			return nil, fmt.Errorf("manifest %s: join %q references unknown tables %q/%q", path, js.Name, js.LeftTable, js.RightTable)
		}
	}
	return &m, nil
}

// ColPath resolves the spec's table source to a .duetcol path, or "" when the
// source is CSV or synthetic. It doubles as the lifecycle Pack target, so
// retrains of a mapped table compact back into the same file.
func (ms ModelSpec) ColPath(baseDir string) string {
	if !strings.HasSuffix(ms.CSV, ".duetcol") {
		return ""
	}
	if filepath.IsAbs(ms.CSV) {
		return ms.CSV
	}
	return filepath.Join(baseDir, ms.CSV)
}

// BuildTable materializes the table of one model spec. Relative CSV paths
// resolve against the manifest's directory.
func (ms ModelSpec) BuildTable(baseDir string) (*duet.Table, error) {
	if ms.CSV == "" && ms.Syn == "" {
		return nil, fmt.Errorf("model %q: one of csv or syn is required", ms.Name)
	}
	path := ms.CSV
	if path != "" && !filepath.IsAbs(path) {
		path = filepath.Join(baseDir, path)
	}
	rows := ms.Rows
	if rows <= 0 {
		rows = 20000
	}
	seed := ms.Seed
	if seed == 0 {
		seed = 1
	}
	t, err := duet.OpenTable(path, ms.Syn, rows, seed)
	if err != nil {
		return nil, err
	}
	t.Name = ms.Name
	return t, nil
}

// Tables builds the table of every model the manifest declares, keyed by
// name: the base tables its join views materialize over.
func (m *Manifest) Tables(baseDir string) (map[string]*duet.Table, error) {
	tables := make(map[string]*duet.Table, len(m.Models))
	for _, ms := range m.Models {
		tbl, err := ms.BuildTable(baseDir)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", ms.Name, err)
		}
		slog.Info("table built", "model", ms.Name, "stats", tbl.Stats())
		tables[ms.Name] = tbl
	}
	return tables, nil
}

// Materialize builds the join view's table and registration options over
// the base tables Tables built: a legacy inner equi-join for the two-table
// form, a full-outer join-graph view for the tables/edges form, or — with a
// sample budget — a budget-row FOJ sample plus the sampler that streams its
// training tuples.
func (js JoinViewSpec) Materialize(tables map[string]*duet.Table) (*duet.Table, duet.AddOpts, *duet.JoinSampler, error) {
	if !js.Graph() {
		joined, err := duet.BuildJoinView(js.Name, tables[js.LeftTable], js.LeftCol, tables[js.RightTable], js.RightCol)
		if err != nil {
			return nil, duet.AddOpts{}, nil, err
		}
		return joined, duet.AddOpts{Join: &js.JoinEdge}, nil, nil
	}
	spec := &duet.JoinGraphSpec{Tables: js.Tables, Edges: js.Edges, Sample: js.Sample}
	joined, sampler, err := spec.Build(js.Name, func(t string) (*duet.Table, error) {
		if tbl, ok := tables[t]; ok {
			return tbl, nil
		}
		return nil, errors.New("not declared in the manifest")
	}, 1)
	if err != nil {
		return nil, duet.AddOpts{}, nil, err
	}
	if sampler != nil {
		slog.Info("sampled FOJ rows (constant-memory materialization)", "model", js.Name, "sampled", js.Sample, "total", sampler.Total())
	}
	return joined, duet.AddOpts{Graph: spec}, sampler, nil
}

// StageBudgets is the manifest's "budgets" block: stage name (one of
// serve.SLOStages) to Go duration string, validated and parsed once, as the
// manifest decodes.
type StageBudgets map[string]time.Duration

func (b *StageBudgets) UnmarshalJSON(data []byte) error {
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = make(StageBudgets, len(raw))
	for stage, val := range raw {
		if stages := serve.SLOStages(); !slices.Contains(stages, stage) {
			return fmt.Errorf("budgets: unknown stage %q (stages: %s)", stage, strings.Join(stages, ", "))
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("budgets.%s: %w", stage, err)
		}
		if d < 0 {
			return fmt.Errorf("budgets.%s must be >= 0 (0 disables the stage), got %s", stage, val)
		}
		(*b)[stage] = d
	}
	return nil
}
