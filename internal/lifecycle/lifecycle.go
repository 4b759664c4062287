// Package lifecycle closes the serving loop: it turns the registry from a
// static model store into a self-maintaining system. A Supervisor owns, per
// managed model, the ingest buffer (new rows appended copy-on-write to the
// model's backing table), two online drift signals — data-side, the
// per-column distribution shift of appended rows against the trained
// snapshot; feedback-side, rolling q-error quantiles over observed true
// cardinalities — and a background worker that, when the configured policy
// trips, retrains the model off-line and installs it through the registry's
// drain-safe in-memory swap, so no in-flight request is ever dropped.
//
// The retrain path picks the cheapest sufficient update: when ingested rows
// introduced no fresh dictionary values (core.EncodingCompatible) and
// feedback queries exist, the served weights are cloned onto the grown table
// and fine-tuned on the observed errors (the paper's long-tail mitigation,
// run automatically); when dictionaries grew — or there is no feedback to
// tune on — a fresh model trains from scratch on the new data, streamed
// through relation.JoinSampler draws for sampled join-graph views. Every
// installed generation is saved through internal/artifact as the model's next
// versioned file, which becomes the registry's reload and watch target; a
// restarted supervisor continues numbering after the newest generation on
// disk, and a restarted server loads that generation (cmd/duetserve).
package lifecycle

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/registry"
	"duet/internal/relation"
)

// keepVersions is how many versioned model files a retrain leaves per model:
// after each save, generations older than the newest keepVersions are
// pruned, so a long-running server under sustained drift does not grow the
// model directory without bound.
const keepVersions = 5

// Policy configures when and how the supervisor retrains; how many model
// files each retrain keeps is fixed (keepVersions). The zero value of each
// threshold disables its signal; a Policy with both signals disabled never
// retrains on its own.
type Policy struct {
	// MaxMedianQErr trips the feedback signal when the rolling median q-error
	// of observed cardinalities exceeds it. <= 0 disables the signal.
	MaxMedianQErr float64
	// MinFeedback is the number of feedback observations required before the
	// feedback signal may trip (default 16).
	MinFeedback int
	// FeedbackWindow caps the rolling feedback window (default 256).
	FeedbackWindow int
	// MaxColumnDrift trips the data signal when any column's total-variation
	// distance between the trained snapshot's distribution and the appended
	// rows (projected onto the snapshot dictionary) exceeds it; 0.3 means 30%
	// of the probability mass moved. <= 0 disables the signal.
	MaxColumnDrift float64
	// MinAppended is the number of ingested rows required before the data
	// signal may trip (default 64).
	MinAppended int
	// MinInterval is the minimum delay between two retrains of one model.
	MinInterval time.Duration
	// MaxConcurrent bounds how many models retrain at once (default 1).
	MaxConcurrent int
	// TrainEpochs, when > 0, overrides the managed train config's epoch count
	// for full retrains.
	TrainEpochs int
	// FineTune tunes the fine-tune path; the zero value selects
	// core.DefaultFineTuneConfig().
	FineTune core.FineTuneConfig
	// CheckInterval is the worker's poll interval (default 200ms). Ingest and
	// Feedback additionally nudge the worker the moment a policy trips, so
	// the interval only bounds staleness after a failed or skipped attempt.
	CheckInterval time.Duration
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.MinFeedback <= 0 {
		p.MinFeedback = 16
	}
	if p.FeedbackWindow <= 0 {
		p.FeedbackWindow = 256
	}
	if p.MinAppended <= 0 {
		p.MinAppended = 64
	}
	if p.MaxConcurrent <= 0 {
		p.MaxConcurrent = 1
	}
	if p.CheckInterval <= 0 {
		p.CheckInterval = 200 * time.Millisecond
	}
	if p.FineTune.Steps <= 0 {
		p.FineTune = core.DefaultFineTuneConfig()
	}
	return p
}

// Options refines NewSupervisor.
type Options struct {
	// Dir is where versioned model files are written; "" disables
	// persistence (swaps stay in-memory only).
	Dir string
	// OnRetrain, when non-nil, observes every retrain attempt — including
	// failed ones — after its swap completed. Called from the retraining
	// goroutine.
	OnRetrain func(stats RetrainStats)
	// Log, when non-nil, receives structured progress records (retrain
	// outcomes with model/version/kind keys).
	Log *slog.Logger
	// Obs, when set, exports the supervisor's counters and drift-signal
	// gauges through the shared metrics registry.
	Obs *obs.Registry
}

// ManageOpts configures one managed model.
type ManageOpts struct {
	// Config is the architecture full retrains rebuild with; the zero value
	// (no hidden layers) selects core.DefaultConfig().
	Config core.Config
	// Train is the base training configuration for full retrains; the zero
	// value (no epochs) selects core.DefaultTrainConfig() with data-only
	// loss. Policy.TrainEpochs overrides the epoch count when set, and
	// observed feedback joins Workload when Lambda > 0.
	Train core.TrainConfig
	// Pack, when set, is the .duetcol path the model's backing table
	// compacts into after each successful retrain: the mapped base plus the
	// in-memory append tail are written out as one new columnar file
	// (atomically, temp + rename — the old inode stays valid under any
	// existing mapping), reopened through colstore.Open, and the new
	// generation is installed bound to the freshly mapped table. Ingest
	// therefore never rewrites the base, and the tail's memory is reclaimed
	// at every retrain. Only meaningful for base-table models.
	Pack string
}

// RetrainKind names which retrain path ran.
type RetrainKind string

// Retrain paths.
const (
	KindFineTune  RetrainKind = "finetune"
	KindFullTrain RetrainKind = "train"
)

// RetrainStats summarizes one retrain attempt.
type RetrainStats struct {
	Model         string
	Version       int
	Kind          RetrainKind
	Rows          int           // rows of the table the new generation serves
	Feedback      int           // feedback records available to the attempt
	TrainDuration time.Duration // fine-tune or full-train wall time
	SwapLatency   time.Duration // registry SwapModel duration
	Path          string        // versioned model file, "" when persistence is off
	Err           error
}

// ModelStats is the externally visible lifecycle state of one managed model
// (GET /lifecycle in duetserve).
type ModelStats struct {
	Model          string    `json:"model"`
	Kind           string    `json:"kind"` // "table" or "graph"
	Version        int       `json:"version"`
	Rows           int       `json:"rows"`
	PendingRows    int       `json:"pending_rows"`
	NewValues      int       `json:"new_values"`
	MaxColumnDrift float64   `json:"max_column_drift"`
	FeedbackN      int       `json:"feedback_n"`
	MedianQErr     float64   `json:"median_qerr"`
	P95QErr        float64   `json:"p95_qerr"`
	Tripped        bool      `json:"tripped"`
	Retraining     bool      `json:"retraining"`
	Retrains       uint64    `json:"retrains"`
	FineTunes      uint64    `json:"finetunes"`
	FullTrains     uint64    `json:"full_trains"`
	Failures       uint64    `json:"failures"`
	LastKind       string    `json:"last_kind,omitempty"`
	LastError      string    `json:"last_error,omitempty"`
	LastSwapMS     float64   `json:"last_swap_ms,omitempty"`
	LastModelPath  string    `json:"last_model_path,omitempty"`
	LastRetrain    time.Time `json:"last_retrain,omitzero"`
}

// managed is the supervisor-side state of one model.
type managed struct {
	name  string
	cfg   core.Config
	train core.TrainConfig
	graph *registry.JoinGraphSpec // non-nil for join-graph views (feedback-only)
	pack  string                  // .duetcol path retrains compact the backing table into ("" = off)

	// ingestMu serializes ingests of this model, so the copy-on-write append
	// can run outside the supervisor lock without two batches racing on the
	// backing table.
	ingestMu sync.Mutex

	// table is the trained snapshot the served generation was built on;
	// backing is snapshot + every ingested row (== table for graph views).
	table   *relation.Table
	backing *relation.Table
	snap    [][]float64 // per-column snapshot histograms of table
	pend    [][]float64 // appended-row counts projected onto snapshot dictionaries
	pending int         // ingested rows since the snapshot
	fresh   int         // ingested cells outside the snapshot dictionaries

	fb *fbWindow

	version     int
	retraining  bool
	lastRetrain time.Time

	retrains, fineTunes, fullTrains, failures uint64
	consecFails                               uint64 // failures since the last success; drives retry backoff
	lastKind                                  RetrainKind
	lastErr                                   error
	lastSwap                                  time.Duration
	lastPath                                  string
}

// Supervisor drives drift-aware background retraining for models served by
// one registry. Create with NewSupervisor, register models with Manage, feed
// it rows (Ingest) and observed cardinalities (Feedback), release with Close.
// All methods are safe for concurrent use.
type Supervisor struct {
	reg *registry.Registry
	pol Policy
	opt Options

	mu     sync.Mutex
	models map[string]*managed
	closed bool

	met lcMetrics

	sem  chan struct{} // bounds concurrent retrains
	poke chan struct{} // nudges the worker when a policy trips
	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // in-flight retrains
}

// NewSupervisor starts a supervisor (and its background worker) over reg.
func NewSupervisor(reg *registry.Registry, pol Policy, opt Options) *Supervisor {
	s := &Supervisor{
		reg:    reg,
		pol:    pol.withDefaults(),
		opt:    opt,
		models: make(map[string]*managed),
		poke:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		met:    newLCMetrics(opt.Obs),
	}
	s.sem = make(chan struct{}, s.pol.MaxConcurrent)
	s.registerScrapeHook(opt.Obs)
	go s.run()
	return s
}

// Manage places a registered model under lifecycle control. Base-table models
// accept Ingest and Feedback; join-graph views accept Feedback only and full-
// retrain from their registered base tables (streamed through a fresh
// JoinSampler for sampled views). Legacy two-table join views are rejected —
// they have no registered rebuild substrate.
func (s *Supervisor) Manage(name string, opts ManageOpts) error {
	var info *registry.ModelInfo
	for _, mi := range s.reg.Info() {
		if mi.Name == name {
			info = &mi
			break
		}
	}
	if info == nil {
		return fmt.Errorf("lifecycle: unknown model %q", name)
	}
	if info.Join != nil {
		return fmt.Errorf("lifecycle: model %q is a legacy two-table join view; only base tables and join-graph views can retrain", name)
	}
	if info.Graph != nil {
		// A graph view retrains from its base tables; they must be
		// registered under their own names so the rebuild can find them.
		for _, bt := range info.Graph.Tables {
			if _, err := s.reg.Table(bt); err != nil {
				return fmt.Errorf("lifecycle: graph view %q retrains from base table %q, which is not registered: %w", name, bt, err)
			}
		}
	}
	tbl, err := s.reg.Table(name)
	if err != nil {
		return err
	}
	if len(opts.Config.Hidden) == 0 {
		opts.Config = core.DefaultConfig()
	}
	if opts.Train.Epochs <= 0 {
		opts.Train = core.DefaultTrainConfig()
		opts.Train.Lambda = 0
	}
	if opts.Pack != "" && info.Graph != nil {
		return fmt.Errorf("lifecycle: model %q is a graph view; Pack applies to base-table models", name)
	}
	mg := &managed{
		name:    name,
		cfg:     opts.Config,
		train:   opts.Train,
		pack:    opts.Pack,
		table:   tbl,
		backing: tbl,
		fb:      newFBWindow(s.pol.FeedbackWindow),
	}
	if s.opt.Dir != "" {
		// Continue numbering after the newest generation on disk, so a
		// restarted supervisor never overwrites a retained artifact.
		mg.version, _ = artifact.Dir(s.opt.Dir).Latest(name)
	}
	if info.Graph != nil {
		spec := *info.Graph
		mg.graph = &spec
	} else {
		mg.snap = snapshotHists(tbl)
		mg.pend = emptyCounts(tbl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("lifecycle: supervisor closed")
	}
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("lifecycle: model %q already managed", name)
	}
	s.models[name] = mg
	return nil
}

// BackingTable returns the managed model's current backing table: the trained
// snapshot plus every ingested row — what the next retrain will train on, and
// the ground-truth substrate for labeling feedback.
func (s *Supervisor) BackingTable(name string) (*relation.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mg, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("lifecycle: model %q is not managed", name)
	}
	return mg.backing, nil
}

// Stats snapshots every managed model, sorted by name.
func (s *Supervisor) Stats() []ModelStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ModelStats, 0, len(s.models))
	for _, mg := range s.models {
		ms := ModelStats{
			Model:          mg.name,
			Kind:           "table",
			Version:        mg.version,
			Rows:           mg.backing.NumRows(),
			PendingRows:    mg.pending,
			NewValues:      mg.fresh,
			MaxColumnDrift: mg.maxDrift(),
			FeedbackN:      mg.fb.len(),
			MedianQErr:     mg.fb.quantile(0.50),
			P95QErr:        mg.fb.quantile(0.95),
			Tripped:        s.trippedLocked(mg),
			Retraining:     mg.retraining,
			Retrains:       mg.retrains,
			FineTunes:      mg.fineTunes,
			FullTrains:     mg.fullTrains,
			Failures:       mg.failures,
			LastKind:       string(mg.lastKind),
			LastSwapMS:     float64(mg.lastSwap.Microseconds()) / 1e3,
			LastModelPath:  mg.lastPath,
			LastRetrain:    mg.lastRetrain,
		}
		if mg.graph != nil {
			ms.Kind = "graph"
		}
		if mg.lastErr != nil {
			ms.LastError = mg.lastErr.Error()
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Close stops the worker and waits for in-flight retrains to finish. Managed
// state is frozen afterwards; the registry stays open (it has its own Close).
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.wg.Wait()
}
