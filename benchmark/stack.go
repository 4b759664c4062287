package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"duet"
	"duet/internal/core"
	"duet/internal/made"
	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// The serving knobs are cmd/duetserve's flag defaults, on every workload:
// workloads differ in their inputs, never in knobs.
const (
	maxBatch    = 64
	flushWindow = 100 * time.Microsecond
	cacheSize   = 4096
	traceRing   = 256
	slowQuery   = 250 * time.Millisecond
)

func serveConfig() duet.ServeConfig {
	return duet.ServeConfig{MaxBatch: maxBatch, FlushWindow: flushWindow, CacheSize: cacheSize}
}

// newSuite is duetserve's observability wiring: metrics on, tracer armed,
// and no request carries a trace header unless a rung adds one. The log goes
// nowhere, but is still formatted.
func newSuite() *duet.ObsSuite {
	suite := duet.NewObsSuite(duet.ObsConfig{
		TraceRing: traceRing,
		SlowQuery: slowQuery,
		Log:       duet.NewObsLogger(io.Discard, slog.LevelInfo),
	})
	duet.RegisterKernelMetrics(suite.Metrics)
	return suite
}

// rowSource draws training tuples from a table's rows, so a model trains for
// a fixed tuple budget whatever the table's size.
type rowSource struct {
	t   *relation.Table
	rng *rand.Rand
}

func (s *rowSource) DrawTuples(dst [][]int32) {
	for _, d := range dst {
		s.t.RowCodes(s.rng.Intn(s.t.NumRows()), d)
	}
}

// trainModel fits a fresh model on budget tuples of t, data-only, and
// returns it with the training throughput.
func trainModel(t *relation.Table, cfg core.Config, budget int) (*core.Model, float64) {
	m := duet.New(t, cfg)
	tc := duet.DefaultTrainConfig()
	tc.Epochs = 1
	tc.Lambda = 0
	tc.Source = &rowSource{t: t, rng: rand.New(rand.NewSource(datasetSeed))}
	tc.SourceRows = budget
	t0 := time.Now()
	duet.Train(m, tc)
	return m, float64(budget) / time.Since(t0).Seconds()
}

// replica is one duetserve process's worth of serving state on a loopback
// listener: registry, optional lifecycle supervisor, /v1 API server.
type replica struct {
	suite   *duet.ObsSuite
	reg     *duet.Registry
	lc      *duet.Lifecycle
	handler http.Handler
	srv     *http.Server
	url     string
}

// listen serves h on a fresh loopback port the way duetserve configures its
// http.Server, and returns once the listener accepts.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln) // returns ErrServerClosed at Shutdown; the listener is already bound
	return srv, "http://" + ln.Addr().String(), nil
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}

// lifecycleSpec turns a replica's model into a managed one: every ingest
// batch trips the drift policy, and retrains run back to back.
type lifecycleSpec struct {
	pack      string // .duetcol path each retrain compacts the table into
	onRetrain func(duet.RetrainStats)
}

// newReplica registers every model from the one artifact file and starts
// serving. dir is the replica's model directory.
func newReplica(dir string, t *relation.Table, models []string, artifact string, ls *lifecycleSpec) (*replica, error) {
	r := &replica{suite: newSuite()}
	r.reg = duet.NewRegistry(duet.RegistryConfig{Dir: dir, Serve: serveConfig(), Obs: r.suite.Metrics})
	planBytes := 0
	for _, name := range models {
		if err := r.reg.Add(name, t, nil, duet.AddOpts{Path: artifact}); err != nil {
			r.close()
			return nil, err
		}
	}
	for _, mi := range r.reg.Info() {
		planBytes = max(planBytes, mi.PlanBytes)
	}
	if ls != nil {
		r.lc = duet.NewLifecycle(r.reg, duet.LifecyclePolicy{
			MaxColumnDrift: 0.3,
			TrainEpochs:    1,
		}, duet.LifecycleOptions{Dir: dir, Log: r.suite.Logger(), Obs: r.suite.Metrics, OnRetrain: ls.onRetrain})
		tc := duet.DefaultTrainConfig()
		tc.Lambda = 0
		for _, name := range models {
			if err := r.lc.Manage(name, duet.LifecycleManageOpts{Config: duet.DefaultConfig(), Train: tc, Pack: ls.pack}); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	r.suite.Tracer.SetBudgets(duet.DeriveSLOBudgets(planBytes, flushWindow))
	r.handler = duet.NewAPIServer(r.reg, r.lc, dir, r.suite).Handler()
	var err error
	if r.srv, r.url, err = listen(r.handler); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replica) close() {
	if r.srv != nil {
		shutdown(r.srv)
	}
	if r.lc != nil {
		r.lc.Close()
	}
	r.reg.Close()
}

// fleet is replicas behind one cluster proxy, all in this process.
type fleet struct {
	replicas []*replica
	proxy    *duet.ClusterProxy
	srv      *http.Server
	url      string
}

func newFleet(dir string, t *relation.Table, models []string, artifact string, n int, ls *lifecycleSpec) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("replica%d", i))
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			f.close()
			return nil, err
		}
		r, err := newReplica(rdir, t, models, artifact, ls)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
		urls = append(urls, r.url)
	}
	suite := newSuite()
	var err error
	f.proxy, err = duet.NewClusterProxy(duet.ClusterConfig{
		Members: urls, Replication: 2,
		Obs: suite.Metrics, Tracer: suite.Tracer, Log: suite.Logger(),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.srv, f.url, err = listen(f.proxy.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	if f.srv != nil {
		shutdown(f.srv)
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	for _, r := range f.replicas {
		r.close()
	}
}

// serveStats sums the engine counters of every model on every replica.
func (f *fleet) serveStats() duet.ServeStats {
	var sum duet.ServeStats
	for _, r := range f.replicas {
		for _, ms := range r.reg.Stats().PerModel {
			addStats(&sum, ms.Stats)
		}
	}
	return sum
}

func addStats(sum *duet.ServeStats, s duet.ServeStats) {
	sum.Requests += s.Requests
	sum.CacheHits += s.CacheHits
	sum.Batches += s.Batches
	sum.BatchedQueries += s.BatchedQueries
	sum.MaxBatch = max(sum.MaxBatch, s.MaxBatch)
	sum.Shed += s.Shed
}

// saveArtifact writes the model file the replicas load.
func saveArtifact(path string, m *core.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// twin is the model's autoregressive network rebuilt outside it, with the
// model's weights: core keeps its network and its input encoding private,
// and the made rung has to call Plan.Forward on the same computation. It
// covers the direct encoding every workload's model uses; newTwin checks the
// rebuilt network against the model's own forward pass, bit for bit.
type twin struct {
	net    *made.MADE
	plan   *made.Plan
	table  *relation.Table
	embeds []*nn.Param // value embedding tables, nil for one-hot and binary columns
	widths []int       // value-encoding width per column
	x      tensor.Matrix
	needed [][]int32
}

func newTwin(m *core.Model, probe []workload.Query) (*twin, error) {
	cfg, t := m.Config(), m.Table()
	if cfg.MPSN != core.MPSNNone || cfg.Encoding != core.EncAuto {
		return nil, fmt.Errorf("twin: only the direct auto encoding is rebuilt, model has MPSN %v encoding %v", cfg.MPSN, cfg.Encoding)
	}
	tw := &twin{table: t, embeds: make([]*nn.Param, t.NumCols()), widths: make([]int, t.NumCols())}
	mp := m.Params()
	nEmbed := 0
	in := make([]int, t.NumCols())
	for i, ndv := range t.NDVs() {
		switch {
		case ndv <= 32:
			tw.widths[i] = ndv
		case ndv <= cfg.EmbedThreshold:
			tw.widths[i] = max(1, bits.Len(uint(ndv-1)))
		default:
			tw.widths[i] = cfg.EmbedDim
			tw.embeds[i] = mp[nEmbed]
			nEmbed++
		}
		in[i] = tw.widths[i] + int(workload.NumOps) + 1
	}
	tw.net = made.New(made.Config{InBlocks: in, OutBlocks: t.NDVs(), Hidden: cfg.Hidden, Residual: cfg.Residual, Seed: cfg.Seed + 1})
	np := tw.net.Params()
	if len(mp)-nEmbed != len(np) {
		return nil, fmt.Errorf("twin: model has %d network params, rebuilt network %d", len(mp)-nEmbed, len(np))
	}
	for i, p := range np {
		src := mp[nEmbed+i]
		if src.W.Rows != p.W.Rows || src.W.Cols != p.W.Cols {
			return nil, fmt.Errorf("twin: param %d is %dx%d in the model, %dx%d rebuilt", i, src.W.Rows, src.W.Cols, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, src.W.Data)
	}
	tw.plan = made.NewPlan(tw.net, made.PlanConfig{})

	specs := make([]core.Spec, len(probe))
	for i, q := range probe {
		specs[i] = m.SpecFromQuery(q)
	}
	want := m.Forward(specs)
	got := tw.net.Forward(tw.encode(m, probe))
	if !want.Equal(got) {
		return nil, fmt.Errorf("twin: rebuilt network disagrees with the model's forward pass; core's encoding changed and benchmark/stack.go must follow")
	}
	return tw, nil
}

// encode fills the reused input matrix and needed-block lists for qs.
func (tw *twin) encode(m *core.Model, qs []workload.Query) *tensor.Matrix {
	x := tw.x.Resize(len(qs), tw.net.In.Tot)
	tw.needed = tw.needed[:0]
	for r, q := range qs {
		spec := m.SpecFromQuery(q)
		row := x.Row(r)
		var need []int32
		for i := range spec {
			dst := tw.net.In.Slice(row, i)
			clear(dst)
			if len(spec[i]) == 0 {
				dst[len(dst)-1] = 1
				continue
			}
			need = append(need, int32(i))
			p, w := spec[i][0], tw.widths[i]
			switch ndv := tw.table.Cols[i].NumDistinct(); {
			case tw.embeds[i] != nil:
				copy(dst[:w], tw.embeds[i].W.Row(int(p.Code)))
			case ndv <= 32:
				dst[p.Code] = 1
			default:
				for b := 0; b < w; b++ {
					dst[b] = float32((p.Code >> b) & 1)
				}
			}
			dst[w+int(p.Op)] = 1
		}
		tw.needed = append(tw.needed, need)
	}
	return x
}

// workDir is a fresh directory under the benchmark's out/ for one set-up's
// model files; everything the benchmark writes stays inside the checkout.
func workDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "run-")
}

// retrainLog collects the supervisor's OnRetrain reports.
type retrainLog struct {
	mu    sync.Mutex
	stats []duet.RetrainStats
	at    []time.Time
}

func (l *retrainLog) add(st duet.RetrainStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = append(l.stats, st)
	l.at = append(l.at, time.Now())
}

func (l *retrainLog) snapshot() ([]duet.RetrainStats, []time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]duet.RetrainStats(nil), l.stats...), append([]time.Time(nil), l.at...)
}
