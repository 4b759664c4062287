package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// gateBackend holds every pass at a gate until the test lets it through, and
// records what each pass was asked. A query's answer is its predicate's code,
// so a caller can tell whose answer it was given. A pass that contains
// poisonCode panics before it reaches the gate.
type gateBackend struct {
	entered chan struct{} // one token per pass that reached the gate
	release chan struct{} // one token lets one pass through

	mu     sync.Mutex
	passes [][]int32
}

const poisonCode = -1

func newGateBackend() *gateBackend {
	// Buffered past any test's pass count, so neither side blocks the other.
	return &gateBackend{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (b *gateBackend) EstimateCardBatch(qs []workload.Query) []float64 {
	codes := make([]int32, len(qs))
	out := make([]float64, len(qs))
	for i, q := range qs {
		codes[i] = q.Preds[0].Code
		out[i] = float64(codes[i])
	}
	if slices.Contains(codes, poisonCode) {
		panic("poisoned query")
	}
	b.mu.Lock()
	b.passes = append(b.passes, codes)
	b.mu.Unlock()
	b.entered <- struct{}{}
	<-b.release
	return out
}

func (b *gateBackend) seen() [][]int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.passes)
}

// within fails the test unless ch delivers inside a generous deadline; it is
// how these tests turn a hang into a failure.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// waitParked blocks until exactly n calls are parked behind the backend.
func waitParked(t *testing.T, e *Estimator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.mu.Lock()
		got := len(e.pending)
		e.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d calls parked, want %d", got, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

type answer struct {
	card float64
	err  error
}

// goEstimate issues one Estimate on its own goroutine. Like net/http around
// a handler, it survives a panic that unwinds out of the call.
func goEstimate(ctx context.Context, e *Estimator, code int32) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- answer{err: fmt.Errorf("caller panicked: %v", r)}
			}
		}()
		card, err := e.Estimate(ctx, q(0, code))
		ch <- answer{card, err}
	}()
	return ch
}

// TestLoneEstimateNeverWaits: a flush window is accepted and ignored, so a
// lone miss costs its forward pass and not a tick of any clock.
func TestLoneEstimateNeverWaits(t *testing.T) {
	const window = 50 * time.Millisecond
	e := New(&slowBackend{}, Config{FlushWindow: window, CacheSize: -1})
	defer e.Close()
	for i := range 5 {
		t0 := time.Now()
		if _, err := e.Estimate(context.Background(), q(0, int32(i))); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > window/5 {
			t.Fatalf("lone estimate %d took %v with a %v flush window configured", i, d, window)
		}
	}
	if st := e.Stats(); st.Batches != 5 || st.MaxBatch != 1 {
		t.Fatalf("lone estimates should each be one pass of one: %+v", st)
	}
}

// TestCoalesceBehindBusyBackend parks ten callers, duplicates among them,
// behind a pass in flight and checks how the engine drains them: oldest
// first, MaxBatch at a time, one backend slot per distinct query, each caller
// given its own answer.
func TestCoalesceBehindBusyBackend(t *testing.T) {
	b := newGateBackend()
	e := New(b, Config{MaxBatch: 4, CacheSize: -1})
	defer e.Close()
	ctx := context.Background()

	first := goEstimate(ctx, e, 100)
	within(t, b.entered, "the first pass")
	codes := []int32{1, 2, 2, 3, 4, 5, 6, 7, 8, 8}
	parked := make([]<-chan answer, len(codes))
	for i, code := range codes {
		parked[i] = goEstimate(ctx, e, code)
		waitParked(t, e, i+1) // fixes the arrival order
	}

	// ⌈10/4⌉ = 3 more passes drain everything parked; nobody waits longer.
	want := [][]int32{{100}, {1, 2, 3}, {4, 5, 6, 7}, {8}}
	for pass := range want {
		if pass > 0 {
			within(t, b.entered, "the next pass")
		}
		if got := b.seen(); len(got) != pass+1 {
			t.Fatalf("%d passes before pass %d was let through, want %d", len(got), pass, pass+1)
		}
		b.release <- struct{}{}
	}
	if a := within(t, first, "the first caller"); a.err != nil || a.card != 100 {
		t.Fatalf("first caller got %+v", a)
	}
	for i, ch := range parked {
		if a := within(t, ch, "a parked caller"); a.err != nil || a.card != float64(codes[i]) {
			t.Fatalf("caller %d (code %d) got %+v", i, codes[i], a)
		}
	}
	got := b.seen()
	if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("passes %v, want %v", got, want)
	}
	st := e.Stats()
	if st.Requests != 11 || st.Batches != 4 || st.BatchedQueries != 9 || st.MaxBatch != 4 {
		t.Fatalf("stats %+v, want 11 requests in 4 passes of 9 queries, largest 4", st)
	}
	if dedup := e.met.dedup.Value(); dedup != 2 {
		t.Fatalf("dedup counter %d, want 2", dedup)
	}
}

// TestEstimateIsEstimateBatchOfOne: on a real model, asking one query at a
// time and asking them all at once give bitwise the same answers.
func TestEstimateIsEstimateBatchOfOne(t *testing.T) {
	m, qs := newFixture(t, relation.SynCensus(800, 12), 96)
	e := New(m, Config{MaxBatch: 16, CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	batch, err := e.EstimateBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		one, err := e.Estimate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if one != batch[i] {
			t.Fatalf("query %d: Estimate %v != EstimateBatch %v", i, one, batch[i])
		}
	}
	if st := e.Stats(); st.Requests != uint64(2*len(qs)) || st.Batches != uint64(len(qs)/16+len(qs)) {
		t.Fatalf("stats %+v", st)
	}
}

// TestFollowerCancel: a parked caller whose ctx ends leaves at once, whether
// it is still waiting for a pass or already riding one, and strands nobody.
func TestFollowerCancel(t *testing.T) {
	b := newGateBackend()
	e := New(b, Config{MaxBatch: 4, CacheSize: -1})
	defer e.Close()
	bg := context.Background()

	leader := goEstimate(bg, e, 1)
	within(t, b.entered, "pass 1")
	ctxA, cancelA := context.WithCancel(bg)
	waiting := goEstimate(ctxA, e, 2)
	waitParked(t, e, 1)
	cancelA()
	if a := within(t, waiting, "the cancelled waiter"); a.err != context.Canceled {
		t.Fatalf("cancelled waiter got %+v", a)
	}
	waitParked(t, e, 0) // it withdrew its call

	next := goEstimate(bg, e, 3)
	waitParked(t, e, 1)
	ctxB, cancelB := context.WithCancel(bg)
	rider := goEstimate(ctxB, e, 4)
	waitParked(t, e, 2)
	b.release <- struct{}{} // pass 1 ends; caller 3 leads {3, 4}
	within(t, b.entered, "pass 2")
	cancelB() // caller 4 is riding the pass in flight
	if a := within(t, rider, "the cancelled rider"); a.err != context.Canceled {
		t.Fatalf("cancelled rider got %+v", a)
	}
	b.release <- struct{}{}
	if a := within(t, leader, "caller 1"); a.err != nil || a.card != 1 {
		t.Fatalf("caller 1 got %+v", a)
	}
	if a := within(t, next, "caller 3"); a.err != nil || a.card != 3 {
		t.Fatalf("caller 3 got %+v", a)
	}
	if got, want := b.seen(), [][]int32{{1}, {3, 4}}; !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("passes %v, want %v", got, want)
	}
}

// TestCancelStorm races deadlines against hand-offs, so that some callers are
// handed the backend just as they give up. The engine must stay live: every
// call ends, and a final estimate still finds a backend somebody released.
func TestCancelStorm(t *testing.T) {
	e := New(&slowBackend{delay: 20 * time.Microsecond}, Config{MaxBatch: 4, CacheSize: -1})
	var wg sync.WaitGroup
	for w := range 16 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range 200 {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(300))*time.Microsecond)
				_, err := e.Estimate(ctx, q(w, int32(i)))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("storm estimate: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	within(t, done, "the storm to end")
	if a := within(t, goEstimate(context.Background(), e, 7), "an estimate after the storm"); a.err != nil {
		t.Fatal(a.err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	within(t, closed, "Close")
}

// TestBackendPanicContained: a pass that panics fails every call of its batch
// with ErrBackendPanic and releases the backend. Uncontained, the leader's
// goroutine unwinds with the backend still held: its riders are never woken,
// every later miss parks behind them, and Close waits forever.
func TestBackendPanicContained(t *testing.T) {
	b := newGateBackend()
	e := New(b, Config{MaxBatch: 4, CacheSize: -1})
	ctx := context.Background()

	first := goEstimate(ctx, e, 1)
	within(t, b.entered, "the first pass")
	poisoned := goEstimate(ctx, e, poisonCode)
	waitParked(t, e, 1) // the poisoned call leads the next pass
	riders := []<-chan answer{goEstimate(ctx, e, 2), goEstimate(ctx, e, 3)}
	waitParked(t, e, 3)
	b.release <- struct{}{}
	if a := within(t, first, "the first caller"); a.err != nil || a.card != 1 {
		t.Fatalf("first caller got %+v", a)
	}
	for _, ch := range append(riders, poisoned) { // riders first: they are who hangs
		a := within(t, ch, "a caller of the poisoned pass")
		if !errors.Is(a.err, ErrBackendPanic) || !strings.Contains(a.err.Error(), "poisoned query") {
			t.Fatalf("caller of the poisoned pass got %+v, want ErrBackendPanic carrying the panic's text", a)
		}
	}

	next := goEstimate(ctx, e, 4)
	within(t, b.entered, "the pass after the panic")
	b.release <- struct{}{}
	if a := within(t, next, "the caller after the panic"); a.err != nil || a.card != 4 {
		t.Fatalf("caller after the panic got %+v", a)
	}
	st := e.Stats()
	if st.Requests != 5 || st.Batches != 2 || st.BatchedQueries != 2 || e.met.panics.Value() != 1 {
		t.Fatalf("stats %+v with %d panics, want 5 requests, 2 completed passes of 2 queries, 1 panic",
			st, e.met.panics.Value())
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	within(t, closed, "Close")
}

// forkingBackend answers like gateBackend, from inside a ParallelFor on its
// worker set the way a model's batch pass forks per layer; a poisoned pass
// panics in every chunk, the worker goroutines' among them.
type forkingBackend struct{ w *tensor.Workers }

func (b forkingBackend) EstimateCardBatch(qs []workload.Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(q.Preds[0].Code)
	}
	b.w.ParallelFor(64, 1, func(lo, hi int) {
		if slices.Contains(out, poisonCode) {
			panic("poisoned query")
		}
	})
	return out
}

// TestWorkerPanicContained: a panic on a ParallelFor worker goroutine, where
// the engine's recover around the pass has no frame, still comes back as
// ErrBackendPanic for that batch and leaves the engine serving. Unrecovered on
// the worker, it ends the process — this test binary included.
func TestWorkerPanicContained(t *testing.T) {
	w := tensor.NewWorkers(4) // fork even on a one-processor host
	defer w.Close()
	e := New(forkingBackend{w}, Config{CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.EstimateBatch(ctx, []workload.Query{q(0, 1), q(0, poisonCode)}); !errors.Is(err, ErrBackendPanic) ||
		!strings.Contains(err.Error(), "poisoned query") {
		t.Fatalf("poisoned batch returned %v, want ErrBackendPanic carrying the worker's panic text", err)
	}
	if n := e.met.panics.Value(); n != 1 {
		t.Fatalf("duet_serve_panics_total = %d, want 1", n)
	}
	if card, err := e.Estimate(ctx, q(0, 7)); err != nil || card != 7 {
		t.Fatalf("estimate after the panic = %v, %v; want 7", card, err)
	}
}

// TestCloseInFlight: Close fails what is parked, lets the pass in flight
// answer what it took, and returns only once the backend is released.
func TestCloseInFlight(t *testing.T) {
	b := newGateBackend()
	e := New(b, Config{MaxBatch: 4, CacheSize: -1})
	ctx := context.Background()

	leader := goEstimate(ctx, e, 1)
	within(t, b.entered, "the pass")
	var parked []<-chan answer
	for i := range 3 {
		parked = append(parked, goEstimate(ctx, e, int32(10+i)))
		waitParked(t, e, i+1)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	for _, ch := range parked {
		if a := within(t, ch, "a parked caller"); a.err != ErrClosed {
			t.Fatalf("parked caller got %+v, want ErrClosed", a)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a pass held the backend")
	case <-time.After(20 * time.Millisecond):
	}
	b.release <- struct{}{}
	if a := within(t, leader, "the leader"); a.err != nil || a.card != 1 {
		t.Fatalf("leader got %+v", a)
	}
	if err := within(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(ctx, q(0, 1)); err != ErrClosed {
		t.Fatalf("Estimate after Close returned %v, want ErrClosed", err)
	}
	if got := b.seen(); len(got) != 1 {
		t.Fatalf("backend ran %v after Close", got)
	}
}
