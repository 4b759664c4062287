package serve

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/relation"
	"duet/internal/workload"
)

// newFixture builds an untrained model (forward cost and determinism are
// identical to a trained one) plus a deterministic random workload.
func newFixture(t testing.TB, tbl *relation.Table, nq int) (*core.Model, []workload.Query) {
	t.Helper()
	m := core.NewModel(tbl, core.DefaultConfig())
	qs := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), nq))
	if len(qs) != nq {
		t.Fatalf("generated %d queries, want %d", len(qs), nq)
	}
	return m, qs
}

// almostEqual accepts the floating-point summation-order difference between
// the packed batch plan and the generic layer stack: a tiny relative error,
// with an absolute floor for near-zero cardinalities.
func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 0 {
		m = -m
	}
	return d <= 1e-9+1e-5*m
}

// TestBatchMatchesSequential is the core accuracy contract: EstimateCardBatch
// must agree with per-query EstimateCard on every synthetic dataset up to
// floating-point summation order (the batch plan re-orders additions), and
// must itself be bitwise deterministic across repeated calls.
func TestBatchMatchesSequential(t *testing.T) {
	datasets := []struct {
		name string
		tbl  *relation.Table
	}{
		{"SynDMV", relation.SynDMV(2000, 1)},
		{"SynKDD", relation.SynKDD(500, 2)},
		{"SynCensus", relation.SynCensus(1000, 3)},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			m, qs := newFixture(t, ds.tbl, 64)
			want := make([]float64, len(qs))
			for i, q := range qs {
				want[i] = m.EstimateCard(q)
			}
			got := m.EstimateCardBatch(qs)
			for i := range qs {
				if !almostEqual(got[i], want[i]) {
					t.Fatalf("query %d: batch %v != sequential %v", i, got[i], want[i])
				}
			}
			// A second batched pass reuses the retained buffers; results must
			// be bit-identical to the first.
			again := m.EstimateCardBatch(qs)
			for i := range qs {
				if again[i] != got[i] {
					t.Fatalf("query %d: second batch %v != first batch %v", i, again[i], got[i])
				}
			}
		})
	}
}

// TestBatchMatchesSequentialMPSN repeats the exactness check for the MLP
// MPSN.
func TestBatchMatchesSequentialMPSN(t *testing.T) {
	tbl := relation.SynCensus(500, 4)
	cfg := core.DefaultConfig()
	cfg.MPSN = core.MPSNMLP
	m := core.NewModel(tbl, cfg)
	qs := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 32))

	got := m.EstimateCardBatch(qs)
	for i, q := range qs {
		if want := m.EstimateCard(q); !almostEqual(got[i], want) {
			t.Fatalf("query %d: batch %v != sequential %v", i, got[i], want)
		}
	}
}

// TestBatchVariableSizes exercises the capacity-reusing encode buffer across
// shrinking and growing batch sizes. A query's estimate must be bitwise
// independent of the batch it rides in (every kernel processes rows
// independently), so single-query batches are the exact reference.
func TestBatchVariableSizes(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(800, 5), 96)
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = m.EstimateCardBatch([]workload.Query{q})[0]
	}
	for _, size := range []int{96, 1, 17, 64, 3, 96} {
		got := m.EstimateCardBatch(qs[:size])
		for i := 0; i < size; i++ {
			if got[i] != want[i] {
				t.Fatalf("size %d query %d: %v != %v", size, i, got[i], want[i])
			}
		}
	}
	if got := m.EstimateCardBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestConcurrentDeterministic hammers Estimate from 32 goroutines and checks
// every answer bitwise against a single-query reference through the same
// batch path: coalescing, caching and buffer reuse must be data-race-free
// (run under -race) and deterministic regardless of batch composition. The
// cache is smaller than the query set, so most requests reach the backend.
// How many of them share a pass depends on how many processors let callers
// arrive while one runs, so this test only bounds the batch size;
// TestCoalesceBehindBusyBackend pins the coalescing itself.
func TestConcurrentDeterministic(t *testing.T) {
	m, qs := newFixture(t, relation.SynDMV(2000, 6), 128)
	want := make(map[string]float64, len(qs))
	for _, q := range qs {
		want[q.CanonicalKey()] = m.EstimateCardBatch([]workload.Query{q})[0]
	}
	e := New(m, Config{MaxBatch: 16, CacheSize: 32})
	defer e.Close()

	const workers = 32
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				q := qs[rng.Intn(len(qs))]
				got, err := e.Estimate(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if exp := want[q.CanonicalKey()]; got != exp {
					t.Errorf("concurrent estimate %v != sequential %v for %v", got, exp, q)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("stats counted %d requests, want %d", st.Requests, workers*perWorker)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits despite repeated queries")
	}
	if st.Batches == 0 || st.BatchedQueries < st.Batches {
		t.Fatalf("implausible batch counters: %+v", st)
	}
	if st.MaxBatch > 16 {
		t.Errorf("a pass exceeded MaxBatch: %+v", st)
	}
}

// TestEstimateBatch checks the explicit-batch path: exact results, cache
// population, and within-batch deduplication.
func TestEstimateBatch(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(800, 7), 48)
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = m.EstimateCardBatch([]workload.Query{q})[0]
	}
	e := New(m, Config{MaxBatch: 16})
	defer e.Close()

	// Duplicate the workload so dedup has something to collapse.
	doubled := append(append([]workload.Query{}, qs...), qs...)
	got, err := e.EstimateBatch(context.Background(), doubled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doubled {
		if got[i] != want[i%len(qs)] {
			t.Fatalf("batch result %d: %v != %v", i, got[i], want[i%len(qs)])
		}
	}
	st := e.Stats()
	if st.BatchedQueries > uint64(len(qs)) {
		t.Errorf("dedup failed: %d backend queries for %d distinct", st.BatchedQueries, len(qs))
	}

	// Everything is cached now; a second pass must not touch the backend.
	batchesBefore := st.Batches
	if _, err := e.EstimateBatch(context.Background(), doubled); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Batches != batchesBefore {
		t.Errorf("cached batch still hit the backend: %d -> %d passes", batchesBefore, st.Batches)
	}
	if st.CacheHits < uint64(len(doubled)) {
		t.Errorf("expected ≥%d cache hits, got %d", len(doubled), st.CacheHits)
	}
}

// TestCacheEviction bounds the cache and checks LRU occupancy accounting.
func TestCacheEviction(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(500, 8), 64)
	e := New(m, Config{CacheSize: 8})
	defer e.Close()
	if _, err := e.EstimateBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().CacheEntries; n > 8 {
		t.Fatalf("cache holds %d entries, cap 8", n)
	}
}

// TestNoCache disables caching; repeated queries must reach the backend.
func TestNoCache(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(500, 9), 4)
	e := New(m, Config{CacheSize: -1})
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.Estimate(context.Background(), qs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CacheHits != 0 || st.BatchedQueries != 3 {
		t.Fatalf("cache-disabled stats: %+v", st)
	}
}

// TestContextCancel verifies an already-canceled context aborts the call.
// TestInstrumentationAllocatesNothing: wiring Config.Obs must not put an
// allocation on an untraced miss — the counters are atomics and the sampled
// stage clocks write into preallocated histograms — while the exact counters
// keep moving by one per call. A run is eight estimates, one period of the
// 1-in-8 clock sampling, so every run pays for one sampled call; the figure
// is the cheapest of many runs because under the race detector sync.Pool
// drops a random quarter of what is put back, and only a run it left alone
// counts the engine's own allocations.
func TestInstrumentationAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	measure := func(reg *obs.Registry) float64 {
		e := New(&slowBackend{}, Config{CacheSize: -1, Obs: reg, ObsModel: "m"})
		defer e.Close()
		calls, least := uint64(0), math.Inf(1)
		for range 100 {
			least = min(least, testing.AllocsPerRun(1, func() {
				for range 8 {
					calls++
					if _, err := e.Estimate(ctx, q(0, int32(calls))); err != nil {
						t.Fatal(err)
					}
				}
			}))
		}
		if st := e.Stats(); st.Requests != calls || st.Batches != calls {
			t.Fatalf("after %d lone misses: %+v", calls, st)
		}
		return least
	}
	if bare, wired := measure(nil), measure(obs.NewRegistry()); wired > bare {
		t.Fatalf("instrumented engine allocates %.0f per 8 estimates, bare %.0f", wired, bare)
	}
}

func TestContextCancel(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(500, 10), 4)
	e := New(m, Config{})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Estimate(ctx, qs[0]); err != context.Canceled {
		t.Fatalf("Estimate returned %v, want context.Canceled", err)
	}
	if _, err := e.EstimateBatch(ctx, qs); err != context.Canceled {
		t.Fatalf("EstimateBatch returned %v, want context.Canceled", err)
	}
}

// TestClose verifies Close is idempotent and fails fast afterwards, even
// with callers racing the shutdown.
func TestClose(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(500, 11), 16)
	e := New(m, Config{MaxBatch: 4})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := e.Estimate(context.Background(), qs[(w*50+i)%len(qs)])
				if err != nil && err != ErrClosed {
					t.Errorf("racing Estimate: %v", err)
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := e.Estimate(context.Background(), qs[0]); err != ErrClosed {
		t.Fatalf("Estimate after Close returned %v, want ErrClosed", err)
	}
	if _, err := e.EstimateBatch(context.Background(), qs); err != ErrClosed {
		t.Fatalf("EstimateBatch after Close returned %v, want ErrClosed", err)
	}
}

// TestCanonicalKey pins the key contract the cache relies on.
func TestCanonicalKey(t *testing.T) {
	a := workload.Query{Preds: []workload.Predicate{
		{Col: 2, Op: workload.OpLe, Code: 9},
		{Col: 0, Op: workload.OpGe, Code: 3},
	}}
	b := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGe, Code: 3},
		{Col: 2, Op: workload.OpLe, Code: 9},
		{Col: 2, Op: workload.OpLe, Code: 9}, // exact duplicate
	}}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("permuted/duplicated predicates should share a canonical key")
	}
	c := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGe, Code: 3},
		{Col: 2, Op: workload.OpLt, Code: 9},
	}}
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Error("different operators must not collide")
	}
	var empty workload.Query
	if empty.CanonicalKey() != "" {
		t.Error("empty query should have the empty key")
	}
}
