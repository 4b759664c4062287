package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"duet"
	"duet/internal/colstore"
	"duet/internal/core"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// The ladder, bottom to top. One caller replays the workload's own inputs at
// every rung; each call is one span whose parent is the rung above, and a
// rung's self time is its median minus the median of the rung below.
//
//	tensor            one saxpy pass over a buffer the size of the plan's weights
//	made              Plan.Forward on the model's network, rebuilt outside it
//	core              Model.EstimateCardBatch
//	serve_batch       Estimator.EstimateBatch, result cache cold
//	registry_queries  Registry.Query{Queries}
//	registry_expr     Registry.Query{Expr} (Exprs for a 64-query call)
//	handler           the API handler's ServeHTTP on a recorder
//	loopback          POST to the replica's listener
//	proxy             POST through the cluster proxy
//
// Beside the chain: serve_point (a lone Estimator.Estimate miss), parse
// (workload.ParseQuery on the call's expressions), proxy_traced (the proxy
// rung with an X-Duet-Trace header), tensor_i8, and made_b<n>/core_b<n> at
// the batch size the workload does not use.
var chain = []string{"tensor", "made", "core", "serve_batch", "registry_queries", "registry_expr", "handler", "loopback", "proxy"}

// span is one timed call, in nanoseconds since the traced pass began.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"` // shared by the spans of one input
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
	durs  map[string][]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), durs: map[string][]int64{}} }

func (tr *tracer) record(name, parent string, id int, start, end time.Duration) {
	tr.spans = append(tr.spans, span{Name: name, ID: id, Start: int64(start), End: int64(end), Parent: parent})
	tr.durs[name] = append(tr.durs[name], int64(end-start))
}

// time runs f as span id of rung name.
func (tr *tracer) time(name, parent string, id int, f func() error) error {
	start := time.Since(tr.t0)
	err := f()
	tr.record(name, parent, id, start, time.Since(tr.t0))
	return err
}

func (tr *tracer) medianUS(name string) (float64, int) {
	d := tr.durs[name]
	return quantileUS(d, 0.5), len(d)
}

// ladderInput is one replayed call: batch queries, their expressions, the
// model they name, and the POST body that carries them.
type ladderInput struct {
	qs    []workload.Query
	exprs []string
	model string
	body  []byte
}

// ladder owns what the traced pass builds beside the workload's stack.
type ladder struct {
	s     *stack
	tr    *tracer
	raw   *core.Model     // for the core and made rungs; no engine owns it
	tw    *twin           // the made rung
	est   *duet.Estimator // the serve rungs
	fleet *fleet          // the rungs from the registry up
	conn  *httpConn
	owned []func() // what close releases
	quick bool
}

func newLadder(s *stack, quick bool) (*ladder, error) {
	l := &ladder{s: s, tr: newTracer(), conn: newHTTPConn(), quick: quick}
	l.owned = append(l.owned, l.conn.close)
	var err error
	if s.est != nil {
		// The workload's Estimator owns s.model; the lower rungs need a
		// model nothing else is using.
		if l.raw, err = s.model.CloneFor(s.table); err != nil {
			return nil, err
		}
		l.est = s.est
		artifact := filepath.Join(s.dir, "ladder.duet")
		if err := saveArtifact(artifact, s.model); err != nil {
			return nil, err
		}
		if l.fleet, err = newFleet(s.dir, s.table, []string{s.def.name}, artifact, 1, nil); err != nil {
			return nil, err
		}
		l.owned = append(l.owned, l.fleet.close)
	} else {
		// The replicas serve copies loaded from the artifact, so s.model is free.
		l.raw, l.fleet = s.model, s.fleet
		served, err := s.model.CloneFor(s.table)
		if err != nil {
			return nil, err
		}
		cfg := serveConfig()
		suite := newSuite()
		cfg.Obs, cfg.ObsModel = suite.Metrics, s.def.name
		l.est = duet.NewEstimator(served, cfg)
		l.owned = append(l.owned, func() { l.est.Close() })
	}
	if l.tw, err = newTwin(l.raw, s.in.check[:8]); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladder) close() {
	for i := len(l.owned) - 1; i >= 0; i-- {
		l.owned[i]()
	}
}

// models are the names the ladder's fleet serves.
func (l *ladder) models() []string {
	if l.s.fleet != nil {
		return l.s.def.models
	}
	return []string{l.s.def.name}
}

// inputs cuts the workload's query pool into n calls of batch queries.
func (l *ladder) inputs(n, batch int) []ladderInput {
	in := l.s.in
	n = min(n, len(in.queries)/batch)
	out := make([]ladderInput, n)
	models := l.models()
	for j := range out {
		li := ladderInput{qs: in.queries[j*batch : (j+1)*batch], exprs: in.exprs[j*batch : (j+1)*batch], model: models[j%len(models)]}
		li.body = estimateBody(li.model, li.exprs)
		out[j] = li
	}
	return out
}

// coldCaches pushes the filler queries through the result caches the next
// rung crosses — the ladder's Estimator, or those of the replicas — so the
// rung's inputs all miss, though the rung below just answered them.
func (l *ladder) coldCaches(embedded bool) error {
	ctx := context.Background()
	if embedded {
		_, err := l.est.EstimateBatch(ctx, l.s.in.filler)
		return err
	}
	for _, r := range l.fleet.replicas {
		for _, m := range l.models() {
			if _, err := r.reg.Query(ctx, duet.QueryRequest{Model: m, Queries: l.s.in.filler}); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernelSpan is the length of the saxpy calls of the tensor rung: about the
// span of a packed hidden layer, half the mean hidden width.
func kernelSpan(cfg core.Config) int {
	sum := 0
	for _, h := range cfg.Hidden {
		sum += h
	}
	return max(16, sum/len(cfg.Hidden)/2/8*8)
}

// Replay limits: a rung stops taking inputs once it has run for rungBudget,
// though not before minReplay of them, so that the ladder of a 6 ms call
// ends as surely as that of a 20 us one.
const (
	rungBudget = time.Second
	minReplay  = 32
)

// replay times do on inputs 0..n-1, back to back, as the spans of one rung.
// before, when set, prepares an input outside its span.
func (l *ladder) replay(name, parent string, n int, before func(id int), do func(id int) error) error {
	budget, least := rungBudget, minReplay
	if l.quick {
		budget, least = budget/20, least/4
	}
	start := time.Now()
	for id := 0; id < n; id++ {
		if id >= least && time.Since(start) > budget {
			break
		}
		if before != nil {
			before(id)
		}
		if err := l.tr.time(name, parent, id, func() error { return do(id) }); err != nil {
			return fmt.Errorf("ladder rung %s: %w", name, err)
		}
	}
	return nil
}

// run replays n inputs at every rung and fills the per-layer metrics the
// ladder gives.
func (l *ladder) run(n int, m metrics) error {
	ctx := context.Background()
	s, tr := l.s, l.tr
	b := s.def.batch
	sized := map[int][]ladderInput{1: l.inputs(n, 1), 64: l.inputs(n, 64)}
	calls := sized[b]
	if len(calls) == 0 {
		return fmt.Errorf("ladder: no inputs")
	}
	parent := func(name string) string {
		for i, c := range chain[:len(chain)-1] {
			if c == name {
				return chain[i+1]
			}
		}
		return ""
	}

	// tensor: the kernel alone, streaming as many weight bytes as one row of
	// the plan has, in span-sized calls. It is the plan's roofline.
	planBytes := l.raw.WarmPlan()
	span := kernelSpan(l.raw.Config())
	weights := make([]float32, planBytes/4/span*span)
	quants := make([]int8, len(weights))
	rng := rand.New(rand.NewSource(1))
	for i := range weights {
		weights[i] = rng.Float32() - 0.5
		quants[i] = int8(rng.Intn(255) - 127)
	}
	acc := make([]float32, span)
	l.replay("tensor", "made", len(calls), nil, func(int) error {
		for off := 0; off < len(weights); off += span {
			tensor.Saxpy(0.001, weights[off:off+span], acc)
		}
		return nil
	})
	l.replay("tensor_i8", "", len(calls), nil, func(int) error {
		for off := 0; off < len(quants); off += span {
			tensor.SaxpyI8(0.001, quants[off:off+span], acc)
		}
		return nil
	})

	// made and core, at both batch sizes. The size the workload uses is the
	// chain's rung; the other carries its size in its name.
	at := func(rung string, size int) string {
		if size == b {
			return rung
		}
		return fmt.Sprintf("%s_b%d", rung, size)
	}
	for _, size := range []int{1, 64} {
		ins := sized[size]
		var x *tensor.Matrix
		l.replay(at("made", size), at("core", size), len(ins),
			func(id int) { x = l.tw.encode(l.raw, ins[id].qs) },
			func(int) error { l.tw.plan.Forward(x, l.tw.needed); return nil })
		l.replay(at("core", size), "serve_batch", len(ins), nil,
			func(id int) error { l.raw.EstimateCardBatch(ins[id].qs); return nil })
	}

	// The cached rungs: every one starts with its inputs out of the caches,
	// though the rung below has just answered them.
	cached := func(name string, ins []ladderInput, do func(c ladderInput) error) error {
		if err := l.coldCaches(name == "serve_batch" || name == "serve_point"); err != nil {
			return err
		}
		return l.replay(name, parent(name), len(ins), nil, func(id int) error { return do(ins[id]) })
	}
	rep0 := l.fleet.replicas[0]
	if err := cached("serve_batch", calls, func(c ladderInput) error {
		_, err := l.est.EstimateBatch(ctx, c.qs)
		return err
	}); err != nil {
		return err
	}
	if err := cached("serve_point", sized[1], func(c ladderInput) error {
		_, err := l.est.Estimate(ctx, c.qs[0])
		return err
	}); err != nil {
		return err
	}
	if err := cached("registry_queries", calls, func(c ladderInput) error {
		_, err := rep0.reg.Query(ctx, duet.QueryRequest{Model: c.model, Queries: c.qs})
		return err
	}); err != nil {
		return err
	}
	if err := cached("registry_expr", calls, func(c ladderInput) error {
		req := duet.QueryRequest{Model: c.model, Exprs: c.exprs}
		if len(c.exprs) == 1 {
			req = duet.QueryRequest{Model: c.model, Expr: c.exprs[0]}
		}
		_, err := rep0.reg.Query(ctx, req)
		return err
	}); err != nil {
		return err
	}
	if err := l.replay("parse", "registry_expr", len(calls), nil, func(id int) error {
		for _, e := range calls[id].exprs {
			if _, err := workload.ParseQuery(s.table, e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// handler: requests and recorders are built before the clock and the
	// allocation counter start.
	reqs := make([]*http.Request, len(calls))
	recs := make([]*httptest.ResponseRecorder, len(calls))
	for i, c := range calls {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(c.body))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	if err := l.coldCaches(false); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	l.replay("handler", "loopback", len(calls), nil, func(id int) error {
		rep0.handler.ServeHTTP(recs[id], reqs[id])
		return nil
	})
	runtime.ReadMemStats(&ms1)
	handled := len(tr.durs["handler"])
	var reqBytes, respBytes int
	for i, rec := range recs[:handled] {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ladder rung handler: status %d: %s", rec.Code, rec.Body)
		}
		reqBytes += len(calls[i].body)
		respBytes += rec.Body.Len()
	}

	if err := cached("loopback", calls, func(c ladderInput) error {
		_, _, err := l.conn.estimate(rep0.url, c.body)
		return err
	}); err != nil {
		return err
	}
	if err := cached("proxy", calls, func(c ladderInput) error {
		_, _, err := l.conn.estimate(l.fleet.url, c.body)
		return err
	}); err != nil {
		return err
	}
	traceID := 0
	if err := cached("proxy_traced", calls, func(c ladderInput) error {
		traceID++
		_, _, err := l.conn.estimate(l.fleet.url, c.body, duet.TraceHeader, fmt.Sprintf("bench-%d", traceID))
		return err
	}); err != nil {
		return err
	}

	// The proxy's own counters.
	var proxyStats struct {
		Proxy struct {
			Forwarded uint64 `json:"forwarded"`
			Failovers uint64 `json:"failovers"`
		} `json:"proxy"`
	}
	resp, err := l.conn.client.Get(l.fleet.url + "/v1/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&proxyStats)
	resp.Body.Close()
	if err != nil {
		return err
	}

	med := func(name string) float64 { v, _ := tr.medianUS(name); return v }
	put := func(name string, v float64, unit string, from string) {
		_, n := tr.medianUS(from)
		m.set(name, v, unit, n)
	}
	saxpyGBs := float64(len(weights)*4) / med("tensor") / 1e3
	put("tensor.saxpy_gb_s", saxpyGBs, "GB/s", "tensor")
	put("tensor.saxpy_i8_gb_s", float64(len(quants))/med("tensor_i8")/1e3, "GB/s", "tensor_i8")
	put("made.plan_us_b64", med(at("made", 64)), "us", at("made", 64))
	put("made.plan_us_b1", med(at("made", 1)), "us", at("made", 1))
	m.set("made.plan_weight_bytes", float64(planBytes), "bytes", 1)
	planGBs := float64(planBytes) * 64 / med(at("made", 64)) / 1e3
	put("made.plan_gb_s", planGBs, "GB/s", at("made", 64))
	put("made.roofline_ratio", planGBs/saxpyGBs, "ratio", at("made", 64))
	put("core.batch_us_b64", med(at("core", 64)), "us", at("core", 64))
	put("core.batch_us_b1", med(at("core", 1)), "us", at("core", 1))
	put("core.self_us", med("core")-med("made"), "us", "core")
	put("serve.self_us", med("serve_batch")-med("core"), "us", "serve_batch")
	put("serve.point_us", med("serve_point")-med(at("core", 1)), "us", "serve_point")
	put("workload.parse_us", med("parse"), "us", "parse")
	put("registry.route_us", med("registry_expr")-med("registry_queries"), "us", "registry_expr")
	put("registry.self_us", med("registry_queries")-med("serve_batch"), "us", "registry_queries")
	put("api.self_us", med("handler")-med("registry_expr"), "us", "handler")
	put("api.wire_us", med("loopback")-med("handler"), "us", "loopback")
	put("api.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/float64(handled), "count", "handler")
	put("api.req_bytes", float64(reqBytes)/float64(handled), "bytes", "handler")
	put("api.resp_bytes", float64(respBytes)/float64(handled), "bytes", "handler")
	put("cluster.hop_us", med("proxy")-med("loopback"), "us", "proxy")
	m.set("cluster.forwarded", float64(proxyStats.Proxy.Forwarded), "count", 1)
	m.set("cluster.retries", float64(proxyStats.Proxy.Failovers), "count", 1)
	put("obs.traced_hop_us", med("proxy_traced")-med("proxy"), "us", "proxy_traced")

	return l.micro(m)
}

// micro times the calls the ladder's inputs do not reach: a training-shaped
// GEMM, AppendRows, and the column store's write and open.
func (l *ladder) micro(m metrics) error {
	s := l.s
	reps := 9
	if l.quick {
		reps = 3
	}
	// One training step's hidden matmul: batch 256 x mu 4 rows through the
	// first two hidden widths.
	hidden := s.model.Config().Hidden
	gm, gk, gn := 1024, hidden[0], hidden[len(hidden)-1]
	rng := rand.New(rand.NewSource(1))
	ga, gb, gc := tensor.New(gm, gk), tensor.New(gk, gn), tensor.New(gm, gn)
	tensor.RandUniform(ga, 1, rng)
	tensor.RandUniform(gb, 1, rng)
	tensor.Mul(gc, ga, gb)
	var gemm []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		tensor.Mul(gc, ga, gb)
		gemm = append(gemm, 2*float64(gm)*float64(gk)*float64(gn)/time.Since(t0).Seconds()/1e9)
	}
	m.set("tensor.gemm_gflop_s", quantile(gemm, 0.5), "GFLOP/s", len(gemm))

	rows := skewedRows(s.table, ingestRows, rng)
	var appendRate, writeMBs, openMS []float64
	var fileBytes int64
	path := filepath.Join(s.dir, "micro.duetcol")
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := relation.AppendRows(s.table, rows); err != nil {
			return err
		}
		appendRate = append(appendRate, float64(len(rows))/time.Since(t0).Seconds())

		t0 = time.Now()
		if err := colstore.Write(path, s.table); err != nil {
			return err
		}
		wrote := time.Since(t0)
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		fileBytes = fi.Size()
		writeMBs = append(writeMBs, float64(fileBytes)/1e6/wrote.Seconds())

		t0 = time.Now()
		st, err := colstore.Open(path)
		if err != nil {
			return err
		}
		openMS = append(openMS, float64(time.Since(t0).Microseconds())/1e3)
		st.Close()
	}
	m.set("relation.append_rows_per_s", quantile(appendRate, 0.5), "rows/s", reps)
	m.set("colstore.write_mb_s", quantile(writeMBs, 0.5), "MB/s", reps)
	m.set("colstore.open_ms", quantile(openMS, 0.5), "ms", reps)
	m.set("colstore.file_bytes", float64(fileBytes), "bytes", 1)
	return nil
}

// traceFile is what the traced pass leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Chain    []string `json:"chain"`
	Spans    []span   `json:"spans"`
}

// loopSpanCap bounds the spans kept from the traced load pass.
const loopSpanCap = 20000

func (tr *tracer) write(path, name string, seed int64, loop *loopResult) error {
	spans := tr.spans
	for i, st := range loop.starts {
		if i == loopSpanCap {
			break
		}
		spans = append(spans, span{Name: "loop", ID: i, Start: st, End: st + loop.lat[i]})
	}
	b, err := json.Marshal(traceFile{Workload: name, Seed: seed, Chain: chain, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
