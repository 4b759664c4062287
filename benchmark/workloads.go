package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"duet"
	"duet/internal/core"
	"duet/internal/relation"
	"duet/internal/workload"
)

// workloadDef fixes everything about a workload but its seed.
type workloadDef struct {
	name      string
	table     func(rows int, seed int64) *relation.Table
	rows      int
	cfg       func() core.Config
	budget    int      // tuples the set-up trains on
	batch     int      // queries per call
	replicas  int      // 0: an embedded Estimator, nothing over HTTP
	models    []string // names the one trained artifact is registered under
	lifecycle bool     // ingest and back-to-back retrains beside the reads
	rate      float64  // open-loop requests/s; 0 is a closed loop
	entry     string   // the ladder rung this workload's callers enter at
}

// Why each workload exists is in BENCHMARK.json and README.md. The training
// budgets are what the run-time cap leaves: a run sets up three
// times and 70 runs share 57 minutes. The burst model is barely trained;
// its work is plan execution, which depends on the network's shape, not on
// what it learned. churn is not in BENCHMARK.json: it keeps both processors
// busy, so its figures follow the shared host's speed further than any bound
// the driver allows. It runs by name and under --workload all, as a
// diagnostic.
var workloads = []*workloadDef{
	{
		name:  "embed_burst",
		table: duet.SynDMV, rows: 20000, cfg: duet.DMVConfig, budget: 512,
		batch: 64, entry: "serve_batch",
	},
	{
		name:  "embed_point",
		table: duet.SynCensus, rows: 20000, cfg: duet.DefaultConfig, budget: 8192,
		batch: 1, entry: "serve_point",
	},
	{
		name:  "http_point",
		table: duet.SynCensus, rows: 20000, cfg: duet.DefaultConfig, budget: 8192,
		batch: 1, replicas: 2, models: []string{"census_a", "census_b"}, rate: httpRate, entry: "proxy",
	},
	{
		name:  "churn",
		table: duet.SynCensus, rows: 10000, cfg: duet.DefaultConfig, budget: 8192,
		batch: 1, replicas: 1, models: []string{"census"}, lifecycle: true, entry: "loopback",
	},
}

// httpRate is the open-loop rate of http_point, frozen at authoring time:
// the largest of 4000/2000/1000 requests/s that is 35-50% of what one
// closed-loop connection gets through the proxy on the reference host, with
// under 1% of requests late. See README.md.
const httpRate = 1000

// ingestEvery is the churn writer's schedule.
const ingestEvery = 250 * time.Millisecond

func findWorkload(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

// loadUnits is how many callers plus connections the generator may run: it
// never starts more than the host has processors.
func loadUnits() int { return min(2, runtime.NumCPU()) }

// stack is a workload set up and ready to take load.
type stack struct {
	def   *workloadDef
	in    *inputs
	table *relation.Table
	dir   string

	// model is the trained model. An embedded workload's Estimator owns it;
	// the replicas of an HTTP workload load their own copies of its artifact.
	model     *core.Model
	trainRate float64

	est   *duet.Estimator // embedded workloads
	store *duet.ColStore  // churn: the mapped base table
	fleet *fleet          // HTTP workloads
	conns []*httpConn     // HTTP workloads: one per load unit

	sent     []int // per load unit: requests sent in earlier passes; a pass goes on where the last stopped
	retrains *retrainLog
	ingests  atomic.Int64 // batches the churn writer has sent, across passes
	ingestMS []float64
}

// maxCard is the largest valid estimate: the rows of the table, with what
// the churn writer has appended and may be appending.
func (s *stack) maxCard() float64 {
	return float64(s.def.rows + (int(s.ingests.Load())+1)*ingestRows)
}

// setUp builds the workload's tables, models and servers. It is what
// setup_s times.
func setUp(def *workloadDef, in *inputs, out string) (*stack, error) {
	s := &stack{def: def, in: in, retrains: &retrainLog{}}
	if err := s.build(out); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) build(out string) error {
	def := s.def
	var err error
	if s.dir, err = workDir(out); err != nil {
		return err
	}
	s.table = def.table(def.rows, datasetSeed)
	if def.lifecycle {
		// A managed table is served from its .duetcol mapping, and every
		// retrain compacts the ingested tail back into that file.
		pack := filepath.Join(s.dir, "base.duetcol")
		if err := duet.PackTable(pack, s.table); err != nil {
			return err
		}
		if s.store, err = duet.OpenColumnar(pack); err != nil {
			return err
		}
		s.table = s.store.Table
	}
	s.model, s.trainRate = trainModel(s.table, def.cfg(), def.budget)

	if def.replicas == 0 {
		suite := newSuite()
		cfg := serveConfig()
		cfg.Obs, cfg.ObsModel = suite.Metrics, def.name
		suite.Tracer.SetBudgets(duet.DeriveSLOBudgets(s.model.WarmPlan(), flushWindow))
		s.est = duet.NewEstimator(s.model, cfg)
		return nil
	}

	artifact := filepath.Join(s.dir, "model.duet")
	if err := saveArtifact(artifact, s.model); err != nil {
		return err
	}
	var ls *lifecycleSpec
	if def.lifecycle {
		ls = &lifecycleSpec{pack: s.store.Path(), onRetrain: s.retrains.add}
	}
	if s.fleet, err = newFleet(s.dir, s.table, def.models, artifact, def.replicas, ls); err != nil {
		return err
	}
	conns := loadUnits()
	if def.lifecycle {
		conns = 2 // the reader's and the writer's, even on one processor
	}
	for i := 0; i < conns; i++ {
		s.conns = append(s.conns, newHTTPConn())
	}
	return nil
}

func (s *stack) close() {
	for _, c := range s.conns {
		c.close()
	}
	if s.fleet != nil {
		s.fleet.close()
	}
	if s.est != nil {
		s.est.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

// estimateServed answers qs through the workload's own serving path, the
// way a user of it would see them.
func (s *stack) estimateServed(qs []workload.Query) ([]float64, error) {
	ctx := context.Background()
	if s.est != nil {
		return s.est.EstimateBatch(ctx, qs)
	}
	res, err := s.fleet.replicas[0].reg.Query(ctx, duet.QueryRequest{Model: s.def.models[0], Queries: qs})
	return res.Cards, err
}

// qerrors is the q-error of the labelled queries through the serving path.
func (s *stack) qerrors() ([]float64, error) {
	qs := make([]workload.Query, len(s.in.labelled))
	for i, lq := range s.in.labelled {
		qs[i] = lq.Query
	}
	cards, err := s.estimateServed(qs)
	if err != nil {
		return nil, err
	}
	errs := make([]float64, len(cards))
	for i, c := range cards {
		errs[i] = duet.QError(c, float64(s.in.labelled[i].Card))
	}
	return errs, nil
}

// serveStats is the engine counters of every estimator in the stack.
func (s *stack) serveStats() duet.ServeStats {
	if s.est != nil {
		return s.est.Stats()
	}
	return s.fleet.serveStats()
}

// loop runs one pass of the workload's load for d. Every caller goes on in
// its input sequence where its last pass stopped, so a pass never replays
// what the pass before left in a result cache.
func (s *stack) loop(d time.Duration, rec bool) loopResult {
	ctx := context.Background()
	in := s.in
	units := loadUnits()
	if s.sent == nil {
		s.sent = make([]int, units)
	}
	sent := make([]int, units)
	counted := func(do call) call {
		return func(c, i int) (int, int) {
			sent[c] = i + 1
			return do(c, s.sent[c]+i)
		}
	}
	defer func() {
		for c := range sent {
			s.sent[c] += sent[c]
		}
	}()
	switch s.def.name {
	case "embed_burst":
		perCaller := len(in.queries) / s.def.batch / units
		return closedLoop(units, d, rec, counted(func(c, i int) (int, int) {
			lo := (c*perCaller + i%perCaller) * s.def.batch
			cards, err := s.est.EstimateBatch(ctx, in.queries[lo:lo+s.def.batch])
			if err != nil {
				return s.def.batch, s.def.batch
			}
			return s.def.batch, wrong(cards, s.def.batch, s.maxCard())
		}))
	case "embed_point":
		return closedLoop(units, d, rec, counted(func(c, i int) (int, int) {
			seq := in.seqs[c%len(in.seqs)]
			card, err := s.est.Estimate(ctx, in.queries[seq[i%len(seq)]])
			if err != nil {
				return 1, 1
			}
			return 1, wrong([]float64{card}, 1, s.maxCard())
		}))
	case "http_point":
		return openLoop(units, s.def.rate, d, rec, counted(func(c, i int) (int, int) {
			cards, _, err := s.conns[c].estimate(s.fleet.url, in.bodies[(i*units+c)%len(in.bodies)])
			if err != nil {
				return 1, 1
			}
			return 1, wrong(cards, 1, s.maxCard())
		}))
	default: // churn: one reader on one connection, the writer beside it
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var writer loopResult
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer = s.ingestLoop(stop)
		}()
		base := s.fleet.replicas[0].url
		res := closedLoop(1, d, rec, counted(func(_, i int) (int, int) {
			cards, _, err := s.conns[0].estimate(base, in.bodies[i%len(in.bodies)])
			if err != nil {
				return 1, 1
			}
			return 1, wrong(cards, 1, s.maxCard())
		}))
		close(stop)
		wg.Wait()
		res.lag, res.late = writer.lag, writer.late
		res.failed += writer.failed
		return res
	}
}

// ingestLoop posts the two skewed row sets alternately, one batch every
// ingestEvery, until stop closes. Every batch is far from the table's
// distribution, so each trips the drift policy and the supervisor retrains
// and swaps back to back.
func (s *stack) ingestLoop(stop <-chan struct{}) loopResult {
	var res loopResult
	conn := s.conns[1]
	url := s.fleet.replicas[0].url + "/v1/ingest"
	start := time.Now()
	for i := 0; ; i++ {
		due := time.Duration(i) * ingestEvery
		select {
		case <-stop:
			return res
		case <-time.After(max(0, due-time.Since(start))):
		}
		lag := time.Since(start) - due
		t0 := time.Now()
		status, _, raw, err := conn.post(url, s.in.ingest[s.ingests.Add(1)%2])
		s.ingestMS = append(s.ingestMS, float64(time.Since(t0).Microseconds())/1e3)
		res.lag = append(res.lag, int64(lag))
		if lag > ingestEvery {
			res.late++
		}
		var rep duet.IngestResult
		if err != nil || status != 200 || json.Unmarshal(raw, &rep) != nil || rep.Appended != ingestRows {
			res.failed++
		}
	}
}

// awaitRetrains waits, for at most limit, until the supervisor has folded
// every ingested row into a generation and stopped training, so that the
// ladder does not share the processors with a retrain.
func (s *stack) awaitRetrains(limit time.Duration) {
	if !s.def.lifecycle {
		return
	}
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		idle := true
		for _, ms := range s.fleet.replicas[0].lc.Stats() {
			idle = idle && !ms.Retraining && ms.PendingRows == 0
		}
		if idle {
			return
		}
	}
}

// checkBefore takes the answers a later check compares against: on
// embed_burst, the check queries answered one at a time.
func (s *stack) checkBefore() ([]float64, error) {
	if s.def.name != "embed_burst" {
		return nil, nil
	}
	single := make([]float64, len(s.in.check))
	for i, q := range s.in.check {
		c, err := s.est.Estimate(context.Background(), q)
		if err != nil {
			return nil, err
		}
		single[i] = c
	}
	return single, nil
}

// checkAfter runs the workload's output checks once its load has stopped and
// reports how many answers it compared and how many were wrong. asked is the
// number of estimates the load asked for since checkBefore.
func (s *stack) checkAfter(before []float64, asked int64) (attempted, failed int, err error) {
	ctx := context.Background()
	switch s.def.name {
	case "embed_burst":
		// The same queries in 64-query batches must give the same bits as one
		// at a time. The answers of checkBefore sit in the result cache until
		// enough distinct queries have gone through to evict them.
		if asked < 2*cacheSize {
			if _, err := s.est.EstimateBatch(ctx, s.in.filler); err != nil {
				return 0, 0, err
			}
		}
		hits := s.est.Stats().CacheHits
		batched, err := s.est.EstimateBatch(ctx, s.in.check)
		if err != nil {
			return 0, 0, err
		}
		if s.est.Stats().CacheHits != hits {
			return 0, 0, fmt.Errorf("check queries were still cached; the batch answers are not fresh")
		}
		for i := range batched {
			if math.Float64bits(batched[i]) != math.Float64bits(before[i]) {
				failed++
			}
		}
		return len(batched), failed, nil
	case "http_point":
		// An answer through the proxy must have the bits of the same
		// expression answered in process by the replica that did not serve it.
		conn := s.conns[0]
		for i, q := range s.in.check {
			model := s.def.models[i%len(s.def.models)]
			expr := renderExpr(s.table, q)
			cards, hdr, err := conn.estimate(s.fleet.url, estimateBody(model, []string{expr}))
			if err != nil {
				return 0, 0, err
			}
			other := s.fleet.replicas[0]
			if hdr.Get(duet.ClusterReplicaHeader) == other.url {
				other = s.fleet.replicas[1]
			}
			res, err := other.reg.Query(ctx, duet.QueryRequest{Model: model, Expr: expr})
			if err != nil {
				return 0, 0, err
			}
			if len(cards) != 1 || math.Float64bits(cards[0]) != math.Float64bits(res.Cards[0]) {
				failed++
			}
		}
		return len(s.in.check), failed, nil
	case "churn":
		// Every retrain succeeded and installed a higher version than the last.
		stats, _ := s.retrains.snapshot()
		last := 0
		for _, st := range stats {
			if st.Err != nil || st.Version <= last {
				failed++
			}
			last = st.Version
		}
		return len(stats), failed, nil
	}
	return 0, 0, nil
}

// retrainRate is rows retrained and installed per second over the retrains
// reported in [from, to]: the rows of every generation after the first,
// over the time between the first install and the last, so a retrain cut by
// either end of the window does not count as a slow one.
func (s *stack) retrainRate(from, to time.Time) (rate float64, n int) {
	stats, at := s.retrains.snapshot()
	var rows []int
	var when []time.Time
	for i, st := range stats {
		if st.Err == nil && !at[i].Before(from) && !at[i].After(to) {
			rows = append(rows, st.Rows)
			when = append(when, at[i])
		}
	}
	switch len(rows) {
	case 0:
		return 0, 0
	case 1:
		return float64(rows[0]) / to.Sub(from).Seconds(), 1
	}
	sum := 0
	for _, r := range rows[1:] {
		sum += r
	}
	return float64(sum) / when[len(when)-1].Sub(when[0]).Seconds(), len(rows)
}
