// Package serve is the concurrent batched serving engine for Duet. The
// paper's headline property — one deterministic forward pass per query, no
// progressive sampling — makes Duet uniquely batchable among learned
// estimators: concurrent single-query requests can be coalesced into one
// micro-batch and answered by a single batched network inference without
// changing any individual estimate.
//
// The engine sits between callers and a batch-native Backend (the
// EstimateCardBatch of the core.Snapshot a registry generation serves),
// which it treats as a single-occupancy resource. A snapshot is safe for
// concurrent use, but the engine still runs one pass per model at a time.
// Coalescing is driven by that occupancy, never by a clock: a miss that
// finds the backend idle becomes the leader and runs the forward pass inline
// on its own goroutine; misses that arrive while a pass is running park, and
// the finishing leader hands the parked calls — FIFO, up to MaxBatch
// queries, deduplicated by canonical predicate-set key — to the first of
// them, which leads the next pass. Batches therefore form
// exactly when the backend is the bottleneck, and a lone estimate costs one
// forward pass and nothing else. Estimate is the one-query case of
// EstimateBatch: both share one cache, dedup, admission and stage-clock
// path. A canonical-key LRU cache in front short-circuits repeated queries
// entirely. Because the backend and the request path pool their scratch,
// steady-state serving performs no per-request matrix allocations.
//
// Estimates are deterministic under coalescing: the batch plan's kernels
// compute output rows independently with fixed accumulation order, so a
// query's estimate is bitwise independent of which micro-batch it happened
// to ride in, and bitwise what the model's EstimateCard returns for it
// alone. The cache and deduplication key identifies the predicate *set*
// (order-insensitive), which matches the direct encoding and the paper's
// recommended MLP MPSN (a sum over predicates); the order-sensitive
// RNN/recursive MPSN variants are research ablations and not intended behind
// the cache.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/obs"
	"duet/internal/workload"
)

// Backend answers a batch of queries with one forward pass. core.Snapshot,
// what a registry generation serves, implements it, as does core.Model
// through the snapshot it publishes; both are safe for concurrent use, other
// backends need not be. The engine serializes every call either way, and
// turns a panic in one into ErrBackendPanic for the calls of that pass.
type Backend interface {
	EstimateCardBatch(qs []workload.Query) []float64
}

// ErrClosed is returned by Estimate and EstimateBatch after Close.
var ErrClosed = errors.New("serve: estimator closed")

// ErrBackendPanic is returned, wrapped around the panic's text, to every call
// of a batch whose forward pass panicked. The backend is released as after any
// other pass, so one poisoned query fails its own batch and nothing else.
var ErrBackendPanic = errors.New("serve: backend panicked")

// Config tunes the serving engine. The zero value selects sensible defaults.
type Config struct {
	// MaxBatch caps one forward pass: a finishing leader hands on parked
	// calls, oldest first, until their queries would exceed it, and an
	// EstimateBatch with more distinct misses runs in chunks of it.
	// Default 64.
	MaxBatch int
	// FlushWindow is accepted and ignored. It used to be how long a
	// dispatcher waited for co-travellers before flushing a partial batch;
	// the engine no longer waits on a clock (see the package comment), so no
	// value of it delays or hastens anything.
	FlushWindow time.Duration
	// CacheSize is the LRU result-cache capacity in entries. Default 4096;
	// negative disables caching.
	CacheSize int
	// Admission bounds the load the engine accepts (per-model QPS token
	// bucket and backlog shedding). The zero value admits everything.
	Admission AdmissionConfig
	// Obs, when set, exports the engine's counters through the shared
	// metrics registry and turns on the per-stage latency clocks. ObsModel
	// is the value of the `model` label on every exported series. Nil keeps
	// the counters private to Stats and the clocks off.
	Obs      *obs.Registry
	ObsModel string
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	c.Admission = c.Admission.withDefaults()
	return c
}

// Stats is a snapshot of the engine's counters. The JSON names are the
// /v1/stats wire contract of cmd/duetserve.
type Stats struct {
	Requests       uint64  `json:"requests"`             // queries received (Estimate + EstimateBatch items)
	CacheHits      uint64  `json:"cache_hits"`           // queries answered from the LRU cache
	Batches        uint64  `json:"batches"`              // backend forward passes issued
	BatchedQueries uint64  `json:"batched_queries"`      // queries answered by those passes (after dedup)
	MaxBatch       uint64  `json:"max_batch"`            // largest backend batch observed
	CacheEntries   int     `json:"cache_entries"`        // current cache occupancy
	Shed           uint64  `json:"shed"`                 // queries rejected by admission control
	RateLimit      float64 `json:"rate_limit,omitempty"` // configured QPS budget (0 = unlimited)
}

// call is the uncached remainder of one Estimate or EstimateBatch: its
// distinct misses, and where their answers go. The caller fills it, the
// leader of the pass it rides in answers it.
type call struct {
	qs    []workload.Query // distinct misses, first-seen order
	keys  []string         // their canonical keys
	cards []float64        // their answers, written by the leader
	wants []want           // which input positions await which of them
	tr    *obs.Trace       // caller's trace; nil for untraced calls
	enq   time.Time        // admission instant; zero unless the call's stages are clocked
	lead  bool             // handed the backend while parked: set under Estimator.mu
	err   error            // why the call went unanswered
	wake  chan struct{}    // one signal to a parked caller: answered, failed, or lead
}

// want says that the caller's input position pos is answered by qs[miss].
type want struct{ pos, miss int }

// Estimator coalesces concurrent cardinality estimates into batched forward
// passes. Create with New, release with Close. Safe for concurrent use.
type Estimator struct {
	cfg     Config
	backend Backend
	cache   *lruCache
	bucket  *bucket // nil when no rate budget is configured
	met     engineMetrics
	tick    atomic.Uint64 // untraced calls seen, for 1-in-8 clock sampling
	calls   sync.Pool     // recycles calls and their slices

	mu       sync.Mutex
	busy     bool           // some caller holds the backend
	pending  []*call        // calls parked behind it, oldest first
	closed   atomic.Bool    // written under mu
	idle     sync.WaitGroup // 1 while the backend is held; Close waits on it
	lastExec atomic.Int64   // duration of the latest pass, ns; admission's Retry-After

	// Owned by whoever holds the backend.
	batch []*call          // the calls the holder answers
	qs    []workload.Query // their distinct queries, when there are several calls
	idx   map[string]int   // canonical key -> position in qs
	cards []float64        // the answers, parallel to qs
}

// New starts a serving engine over backend. The caller owns backend and must
// not use it concurrently with the estimator; all model access goes through
// the engine after this point.
func New(backend Backend, cfg Config) *Estimator {
	cfg = cfg.withDefaults()
	e := &Estimator{
		cfg:     cfg,
		backend: backend,
		cache:   newLRUCache(cfg.CacheSize),
		idx:     make(map[string]int, cfg.MaxBatch),
		met:     newEngineMetrics(cfg.Obs, cfg.ObsModel),
	}
	if cfg.Admission.QPS > 0 {
		e.bucket = newBucket(cfg.Admission.QPS, cfg.Admission.Burst)
	}
	registerEngineGauges(cfg.Obs, cfg.ObsModel, e)
	e.calls.New = func() any { return &call{wake: make(chan struct{}, 1)} }
	return e
}

// Estimate returns the estimated cardinality of q: from the cache when
// possible, by an inline forward pass when the backend is idle, and otherwise
// by riding the pass that follows the one in flight. It blocks until the
// estimate is ready, ctx is done, or the estimator is closed.
func (e *Estimator) Estimate(ctx context.Context, q workload.Query) (float64, error) {
	qs := [1]workload.Query{q}
	var out [1]float64
	if err := e.estimate(ctx, qs[:], out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// EstimateBatch answers an explicit batch, serving cache hits directly and
// pushing the distinct misses through the backend in MaxBatch-sized passes.
// Admission is all-or-nothing: a partially answered batch is useless to the
// caller.
func (e *Estimator) EstimateBatch(ctx context.Context, qs []workload.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	if err := e.estimate(ctx, qs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// estimate fills out[i] with the estimate of qs[i].
func (e *Estimator) estimate(ctx context.Context, qs []workload.Query, out []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.closed.Load() {
		return ErrClosed
	}
	e.met.requests.Add(uint64(len(qs)))
	tr := obs.FromContext(ctx)
	// The stage clocks run for every traced call — its spans need real times
	// — and, when metrics are wired, for one untraced call in eight: the
	// histograms stay uniform samples of what callers see, the counters stay
	// exact, and instrumenting an engine costs about an atomic add per call.
	timed := tr != nil || (e.met.timed && e.tick.Add(1)%8 == 0)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var c *call             // taken from the pool at the first miss
	var seen map[string]int // key -> position in c.qs; a single query has no duplicates
	hits, misses := 0, 0
	for i, q := range qs {
		key := q.CanonicalKey()
		if card, ok := e.cache.get(key); ok {
			out[i] = card
			hits++
			continue
		}
		if c == nil {
			c = e.calls.Get().(*call)
			if len(qs) > 1 {
				seen = make(map[string]int, len(qs)-i)
			}
		}
		j, dup := seen[key]
		if !dup {
			j = len(c.qs)
			c.qs = append(c.qs, q)
			c.keys = append(c.keys, key)
			if seen != nil {
				seen[key] = j
			}
			misses++
		}
		c.wants = append(c.wants, want{i, j})
	}
	e.met.hits.Add(uint64(hits))
	if dups := len(qs) - hits - misses; dups > 0 {
		e.met.dedup.Add(uint64(dups))
	}
	if timed {
		var attrs []string
		if tr != nil {
			attrs = []string{"hits", strconv.Itoa(hits), "misses", strconv.Itoa(misses)}
		}
		e.stage(e.met.cacheLookup, tr, "cache_lookup", t0, attrs...)
	}
	if c == nil {
		return nil
	}
	// Admission guards the backend, so cache hits above are always free; only
	// a miss spends rate budget or backlog room.
	c.tr = tr
	if timed {
		t0 = time.Now()
	}
	lead, err := e.admit(c, timed)
	if timed {
		e.stage(e.met.admissionWait, tr, "admission_wait", t0)
	}
	if err != nil {
		e.recycle(c)
		return err
	}
	if !lead {
		// A call that gives up while parked may still be written by the leader
		// of the batch it rides in, so it goes to the GC, not back to the pool.
		if lead, err = e.await(ctx, c); err != nil {
			return err
		}
	}
	if lead {
		e.run(ctx)
	}
	if err = c.err; err == nil {
		for _, w := range c.wants {
			out[w.pos] = c.cards[w.miss]
		}
	}
	e.recycle(c)
	return err
}

// recycle returns a call nobody else references to the pool.
func (e *Estimator) recycle(c *call) {
	clear(c.qs) // drop the callers' predicate slices
	*c = call{qs: c.qs[:0], keys: c.keys[:0], cards: c.cards[:0], wants: c.wants[:0], wake: c.wake}
	e.calls.Put(c)
}

// stage records one caller-side stage that started at t0 and ends now: into
// its histogram when metrics are wired (the trace id becomes the bucket's
// exemplar) and as a span on the caller's trace.
func (e *Estimator) stage(h *obs.Histogram, tr *obs.Trace, name string, t0 time.Time, attrs ...string) {
	d := time.Since(t0)
	if e.met.timed {
		h.ObserveEx(d.Seconds(), tr.ID())
	}
	tr.AddSpan(name, t0, d, attrs...)
}

// await parks the caller of c until the call is answered or failed (lead
// false) or handed the backend with c at the head of e.batch (lead true). A
// caller whose ctx ends first withdraws c — unless it was just handed the
// backend: the calls batched behind it depend on this caller, so it leads.
// It parks even behind a short pass: polling for the hand-off would take
// the processor the pass in flight runs on.
func (e *Estimator) await(ctx context.Context, c *call) (lead bool, err error) {
	select {
	case <-c.wake:
	case <-ctx.Done():
		e.mu.Lock()
		if i := slices.Index(e.pending, c); i >= 0 {
			e.pending = slices.Delete(e.pending, i, i+1)
		}
		lead = c.lead
		e.mu.Unlock()
		if !lead {
			return false, ctx.Err()
		}
		<-c.wake
	}
	return c.lead, c.err
}

// run answers e.batch, then passes the backend on. The caller holds the
// backend and owns e.batch[0]; ctx is its own.
func (e *Estimator) run(ctx context.Context) {
	batch := e.batch
	qs := batch[0].qs
	if len(batch) > 1 {
		qs = e.qs[:0]
		clear(e.idx)
		riders := 0
		for _, c := range batch {
			riders += len(c.qs)
			for i, key := range c.keys {
				if _, ok := e.idx[key]; !ok {
					e.idx[key] = len(qs)
					qs = append(qs, c.qs[i])
				}
			}
		}
		e.qs = qs
		if dups := riders - len(qs); dups > 0 {
			e.met.dedup.Add(uint64(dups))
		}
	}
	cards := e.cards[:0]
	var err error
	for lo := 0; lo < len(qs); lo += e.cfg.MaxBatch {
		if lo > 0 {
			// Only a lone call can exceed MaxBatch, so stopping between its
			// chunks strands nobody else.
			if err = ctx.Err(); err != nil {
				break
			}
			if e.closed.Load() {
				err = ErrClosed
				break
			}
		}
		chunk := qs[lo:min(lo+e.cfg.MaxBatch, len(qs))]
		start := time.Now()
		var out []float64
		if out, err = e.forward(chunk); err != nil {
			break
		}
		cards = append(cards, out...)
		e.observePass(batch, lo == 0, len(chunk), start, time.Since(start))
	}
	e.cards = cards
	// A batch of several calls is one pass, so the only error it can see is a
	// panic, which fails them all; a ctx or Close error is a lone call's own.
	for _, c := range batch {
		c.err = err
	}
	if err == nil {
		for _, c := range batch {
			for i, key := range c.keys {
				j := i
				if len(batch) > 1 {
					j = e.idx[key]
				}
				c.cards = append(c.cards, cards[j])
				e.cache.put(key, cards[j])
			}
		}
	}
	for _, c := range batch[1:] {
		c.wake <- struct{}{}
	}
	e.handOff()
}

// forward is one backend pass. The pass runs inline on a caller's goroutine
// with riders parked behind it, so a panic that unwound from here would leave
// the backend held and the riders asleep for good; it comes back as an error.
func (e *Estimator) forward(qs []workload.Query) (cards []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.met.panics.Inc()
			err = fmt.Errorf("%w: %v", ErrBackendPanic, r)
		}
	}()
	return e.backend.EstimateCardBatch(qs), nil
}

// observePass counts one backend pass over n queries and attributes it, and
// on a batch's first pass the wait before it, to every clocked call in batch;
// a pass that answered a clocked call enters the pass histograms.
func (e *Estimator) observePass(batch []*call, first bool, n int, start time.Time, d time.Duration) {
	e.lastExec.Store(int64(d))
	e.met.batches.Inc()
	e.met.batched.Add(uint64(n))
	e.met.maxBatch.SetMax(float64(n))
	clocked, exemplar := false, ""
	for _, c := range batch {
		if c.enq.IsZero() {
			continue
		}
		clocked = true
		if first {
			wait := start.Sub(c.enq)
			if e.met.timed {
				e.met.batchWait.ObserveEx(wait.Seconds(), c.tr.ID())
			}
			c.tr.AddSpan("batch_wait", c.enq, wait)
		}
		if c.tr != nil {
			exemplar = c.tr.ID()
			c.tr.AddSpan("plan_exec", start, d, "batch_size", strconv.Itoa(n))
		}
	}
	if clocked && e.met.timed {
		e.met.batchSize.Observe(float64(n))
		e.met.planExec.ObserveEx(d.Seconds(), exemplar)
	}
}

// handOff gives the backend to the oldest parked call, together with the
// calls queued behind it that fit one pass, or marks it idle when none wait.
func (e *Estimator) handOff() {
	e.mu.Lock()
	n, rows := 0, 0
	for n < len(e.pending) && (n == 0 || rows+len(e.pending[n].qs) <= e.cfg.MaxBatch) {
		rows += len(e.pending[n].qs)
		n++
	}
	if n == 0 {
		e.busy = false
		e.mu.Unlock()
		e.idle.Done()
		return
	}
	e.batch = append(e.batch[:0], e.pending[:n]...)
	e.pending = slices.Delete(e.pending, 0, n)
	next := e.batch[0]
	next.lead = true
	e.mu.Unlock()
	next.wake <- struct{}{}
}

// Stats returns a snapshot of the engine counters. The fields read the same
// obs instruments the Prometheus exposition serves, so /v1/stats and
// /v1/metrics always agree on any counter they both report.
func (e *Estimator) Stats() Stats {
	return Stats{
		Requests:       e.met.requests.Value(),
		CacheHits:      e.met.hits.Value(),
		Batches:        e.met.batches.Value(),
		BatchedQueries: e.met.batched.Value(),
		MaxBatch:       uint64(e.met.maxBatch.Value()),
		CacheEntries:   e.cache.len(),
		Shed:           e.met.shedRate.Value() + e.met.shedQueue.Value(),
		RateLimit:      e.cfg.Admission.QPS,
	}
}

// Close fails every parked call with ErrClosed and returns once the pass in
// flight, if any, has answered the calls it took and released the backend.
// Subsequent calls to Estimate and EstimateBatch return ErrClosed. Close is
// idempotent.
func (e *Estimator) Close() error {
	e.mu.Lock()
	e.closed.Store(true)
	parked := e.pending
	e.pending = nil
	e.mu.Unlock()
	for _, c := range parked {
		c.err = ErrClosed
		c.wake <- struct{}{}
	}
	e.idle.Wait()
	return nil
}
