// Package bench reproduces every table and figure of the paper's evaluation
// (Section V). Each experiment is a function that builds the datasets,
// workloads and estimators it needs and prints the same rows/series the
// paper reports. The cmd/duetbench binary exposes them behind -exp flags and
// the root bench_test.go wires each one to a testing.B benchmark.
//
// This package measures what the paper measures: accuracy and the cost of
// the methods it compares. How fast the system serves, trains and stores is
// measured by benchmark/ (see benchmark/README.md), and the invariants that
// are not trends are go test assertions next to the code they guard.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"duet/internal/core"
	"duet/internal/estimator"
	"duet/internal/exec"
	"duet/internal/naru"
	"duet/internal/relation"
	"duet/internal/uae"
	"duet/internal/workload"
)

// Scale sizes an experiment run. The paper's testbed (12M-row DMV, 1e5
// training queries, GPU training) is scaled to CPU-friendly sizes that
// preserve every shape the evaluation demonstrates; Full is closest to the
// paper, Quick regenerates all artifacts in minutes, Tiny keeps the unit
// test suite fast.
type Scale struct {
	Name       string
	DMVRows    int
	KDDRows    int
	CensusRows int

	TrainQueries int
	TestQueries  int

	Epochs          int
	BatchSize       int
	NaruSamples     int
	UAETrainSamples int
	QueryBatch      int

	// SmallNets replaces the paper's per-dataset architectures with a small
	// ResMADE so the tiny scale exercises every code path in seconds.
	SmallNets bool
	// DMVBigNet enables the paper's 512-256-512-128-1024 MADE for the DMV
	// dataset (Full scale only; it dominates CPU training time otherwise).
	DMVBigNet bool
}

// Predefined scales.
var (
	Tiny = Scale{Name: "tiny", DMVRows: 2000, KDDRows: 800, CensusRows: 1500,
		TrainQueries: 200, TestQueries: 40, Epochs: 2, BatchSize: 128,
		NaruSamples: 48, UAETrainSamples: 16, QueryBatch: 2, SmallNets: true}
	Quick = Scale{Name: "quick", DMVRows: 15000, KDDRows: 4000, CensusRows: 8000,
		TrainQueries: 1500, TestQueries: 150, Epochs: 6, BatchSize: 256,
		NaruSamples: 200, UAETrainSamples: 64, QueryBatch: 4}
	Full = Scale{Name: "full", DMVRows: 200000, KDDRows: 40000, CensusRows: 48842,
		TrainQueries: 10000, TestQueries: 2000, Epochs: 25, BatchSize: 512,
		NaruSamples: 1000, UAETrainSamples: 200, QueryBatch: 8, DMVBigNet: true}
)

// ScaleByName resolves tiny/quick/full.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Scale{}, fmt.Errorf("bench: unknown scale %q (tiny|quick|full)", name)
	}
}

// Dataset bundles a table with its paper-protocol workloads.
type Dataset struct {
	Name       string
	Table      *relation.Table
	BoundedCol int
	// Train is the hybrid-training workload: seed 42, gamma predicate
	// counts, one bounded column (V-A2).
	Train []workload.LabeledQuery
	// InQ and RandQ are the two 2k-query test workloads (seeds 42 / 1234).
	InQ   []workload.LabeledQuery
	RandQ []workload.LabeledQuery
}

// DatasetNames lists the three evaluation datasets.
var DatasetNames = []string{"dmv", "kdd", "census"}

// datasetCache memoizes BuildDataset across experiments of one process (the
// generators and exact labelling are deterministic in the scale, so sharing
// is safe; estimators are never cached).
var datasetCache sync.Map

// BuildDataset constructs one of the synthetic stand-ins plus its workloads,
// memoized per (name, scale).
func BuildDataset(name string, s Scale) (*Dataset, error) {
	key := fmt.Sprintf("%s/%s", name, s.Name)
	if v, ok := datasetCache.Load(key); ok {
		return v.(*Dataset), nil
	}
	d, err := buildDataset(name, s)
	if err != nil {
		return nil, err
	}
	datasetCache.Store(key, d)
	return d, nil
}

func buildDataset(name string, s Scale) (*Dataset, error) {
	rows := map[string]int{"dmv": s.DMVRows, "kdd": s.KDDRows, "census": s.CensusRows}
	t, err := relation.Synthetic(name, rows[name], 1)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	d := &Dataset{Name: name, Table: t, BoundedCol: workload.LargestColumn(t)}
	trainCfg := workload.InQConfig(t.NumCols(), s.TrainQueries, d.BoundedCol)
	d.Train = exec.Label(t, workload.Generate(t, trainCfg))
	inqCfg := workload.InQConfig(t.NumCols(), s.TestQueries, d.BoundedCol)
	d.InQ = exec.Label(t, workload.Generate(t, inqCfg))
	randCfg := workload.RandQConfig(t.NumCols(), s.TestQueries)
	d.RandQ = exec.Label(t, workload.Generate(t, randCfg))
	return d, nil
}

// duetConfig picks the paper's architecture per dataset: large plain MADE
// for DMV, 2-layer ResMADE-128 otherwise; SmallNets scales shrink both.
func duetConfig(name string, s Scale) core.Config {
	if s.SmallNets {
		c := core.DefaultConfig()
		c.Hidden = []int{48, 48}
		c.EmbedDim = 16
		return c
	}
	if name == "dmv" && s.DMVBigNet {
		return core.DMVConfig()
	}
	return core.DefaultConfig()
}

func naruConfig(name string, s Scale) naru.Config {
	c := naru.DefaultConfig()
	if s.SmallNets {
		c.Hidden = []int{48, 48}
	} else if name == "dmv" && s.DMVBigNet {
		c.Hidden = []int{512, 256, 512, 128, 1024}
		c.Residual = false
	}
	c.Samples = s.NaruSamples
	return c
}

// TrainDuet trains a hybrid Duet model on d.
func TrainDuet(d *Dataset, s Scale, lambda float64, onEpoch func(int, core.EpochStats) bool) *core.Model {
	m := core.NewModel(d.Table, duetConfig(d.Name, s))
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = s.Epochs
	cfg.BatchSize = s.BatchSize
	cfg.Lambda = lambda
	cfg.QueryBatch = s.QueryBatch
	if lambda > 0 {
		cfg.Workload = d.Train
	}
	cfg.OnEpoch = onEpoch
	core.Train(m, cfg)
	return m
}

// TrainNaru trains the Naru baseline on d.
func TrainNaru(d *Dataset, s Scale, onEpoch func(int, naru.EpochStats) bool) *naru.Model {
	m := naru.New(d.Table, naruConfig(d.Name, s))
	cfg := naru.DefaultTrainConfig()
	cfg.Epochs = s.Epochs
	cfg.BatchSize = s.BatchSize
	cfg.OnEpoch = onEpoch
	naru.Train(m, cfg)
	return m
}

// TrainUAE trains the UAE baseline on d; oom reports whether hybrid training
// exceeded the memory budget (the model is still usable, data-only trained
// up to the failure point, mirroring how the paper reports UAE on Kdd).
func TrainUAE(d *Dataset, s Scale, memLimit int64, onEpoch func(int, naru.EpochStats) bool) (m *uae.Model, oom bool) {
	cfg := uae.DefaultConfig()
	cfg.Naru = naruConfig(d.Name, s)
	cfg.TrainSamples = s.UAETrainSamples
	m = uae.New(d.Table, cfg)
	tc := uae.DefaultTrainConfig()
	tc.Epochs = s.Epochs
	tc.BatchSize = s.BatchSize
	tc.QueryBatch = s.QueryBatch
	tc.Workload = d.Train
	tc.MemLimitBytes = memLimit
	tc.OnEpoch = onEpoch
	_, err := uae.Train(m, tc)
	return m, err != nil
}

// Eval runs an estimator over a labeled workload.
func Eval(est estimator.Estimator, queries []workload.LabeledQuery) estimator.Result {
	return estimator.Evaluate(est, queries)
}

// named wraps an estimator with a display name override (duet vs duet-d).
type named struct {
	estimator.Estimator
	name string
}

func (n named) Name() string { return n.name }

// Rename returns est reporting the given name.
func Rename(est estimator.Estimator, name string) estimator.Estimator {
	return named{Estimator: est, name: name}
}

// fmtMB renders bytes as MB with paper-style precision.
func fmtMB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e6) }

// fmtMS renders mean nanoseconds as milliseconds.
func fmtMS(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// timer measures a phase.
func timer() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
