package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"duet/internal/workload"
)

// slowBackend answers batches after an optional delay.
type slowBackend struct {
	delay time.Duration
}

func (b *slowBackend) EstimateCardBatch(qs []workload.Query) []float64 {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	out := make([]float64, len(qs))
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func q(col int, code int32) workload.Query {
	return workload.Query{Preds: []workload.Predicate{{Col: col, Op: workload.OpLe, Code: code}}}
}

func TestRateAdmissionSheds(t *testing.T) {
	e := New(&slowBackend{}, Config{
		CacheSize: -1,
		Admission: AdmissionConfig{QPS: 1, Burst: 2},
	})
	defer e.Close()
	ctx := context.Background()

	// The burst admits two queries; the third must shed with a retry hint.
	for i := range 2 {
		if _, err := e.Estimate(ctx, q(0, int32(i))); err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
	}
	_, err := e.Estimate(ctx, q(0, 99))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Reason != "rate" || ov.RetryAfter <= 0 {
		t.Fatalf("overload detail: %+v", ov)
	}
	if s := e.Stats(); s.Shed != 1 || s.RateLimit != 1 {
		t.Fatalf("stats after shed: %+v", s)
	}
	// The bucket refills: after ~1s one more token is available. Poll rather
	// than sleep a fixed amount so the test stays robust on loaded runners.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := e.Estimate(ctx, q(0, 100)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRateAdmissionBatchAllOrNothing(t *testing.T) {
	e := New(&slowBackend{}, Config{
		CacheSize: -1,
		Admission: AdmissionConfig{QPS: 1, Burst: 4},
	})
	defer e.Close()
	ctx := context.Background()

	// A 6-query batch cannot ever fit the 4-token bucket whole.
	qs := make([]workload.Query, 6)
	for i := range qs {
		qs[i] = q(0, int32(i))
	}
	if _, err := e.EstimateBatch(ctx, qs); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch: want ErrOverloaded, got %v", err)
	}
	// A batch within the burst is admitted whole.
	if got, err := e.EstimateBatch(ctx, qs[:3]); err != nil || len(got) != 3 {
		t.Fatalf("in-budget batch: %v %v", got, err)
	}
}

func TestCacheHitsBypassAdmission(t *testing.T) {
	e := New(&slowBackend{}, Config{
		Admission: AdmissionConfig{QPS: 1, Burst: 1},
	})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Estimate(ctx, q(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Same query repeated: cache hits never spend budget or shed.
	for range 20 {
		if _, err := e.Estimate(ctx, q(0, 1)); err != nil {
			t.Fatalf("cached query shed: %v", err)
		}
	}
}

// TestQueueBoundSheds: with the backend busy and MaxQueue calls parked, the
// next caller is shed at once, and exactly: the bound is the parked list's
// length, so precisely the callers past it are refused. A caller shed for
// room has used no backend, so it must not have spent rate budget either.
func TestQueueBoundSheds(t *testing.T) {
	b := newGateBackend()
	e := New(b, Config{
		MaxBatch:  1,
		CacheSize: -1,
		// A refill too slow to show, so the token count below is exact.
		Admission: AdmissionConfig{MaxQueue: 2, QPS: 1e-6, Burst: 100},
	})
	defer e.Close()
	ctx := context.Background()

	admitted := []<-chan answer{goEstimate(ctx, e, 0)}
	within(t, b.entered, "the first pass")
	for i := 1; i <= 2; i++ {
		admitted = append(admitted, goEstimate(ctx, e, int32(i)))
		waitParked(t, e, i)
	}
	for i := range 5 {
		_, err := e.Estimate(ctx, q(0, int32(10+i)))
		var ov *OverloadError
		if !errors.As(err, &ov) || ov.Reason != "queue" || ov.RetryAfter <= 0 {
			t.Fatalf("caller past the bound got %v, want a queue shed with a retry hint", err)
		}
	}
	if s := e.Stats(); s.Shed != 5 {
		t.Fatalf("shed counter %d, want 5", s.Shed)
	}
	e.bucket.mu.Lock()
	tokens := e.bucket.tokens
	e.bucket.mu.Unlock()
	if tokens < 97 || tokens > 97.01 {
		t.Fatalf("%.3f tokens left of 100 after 3 admitted and 5 shed for room, want 97", tokens)
	}
	for i, ch := range admitted {
		b.release <- struct{}{}
		if a := within(t, ch, "an admitted caller"); a.err != nil || a.card != float64(i) {
			t.Fatalf("admitted caller %d got %+v", i, a)
		}
	}
	// Room again: the next caller is admitted.
	b.release <- struct{}{}
	if _, err := e.Estimate(ctx, q(0, 50)); err != nil {
		t.Fatalf("estimate after the backlog drained: %v", err)
	}
}

// TestQueueRetryFromBacklog: without a rate budget the retry hint is the
// passes the backlog needs, plus the one in flight, at the last pass's
// duration — nothing about it comes from a flush window.
func TestQueueRetryFromBacklog(t *testing.T) {
	b := newGateBackend()
	e := New(b, Config{
		MaxBatch:    2,
		FlushWindow: time.Hour,
		CacheSize:   -1,
		Admission:   AdmissionConfig{MaxQueue: 3},
	})
	defer e.Close()
	ctx := context.Background()

	b.release <- struct{}{}
	if _, err := e.Estimate(ctx, q(0, 0)); err != nil { // gives the engine a pass to have timed
		t.Fatal(err)
	}
	<-b.entered
	last := time.Duration(e.lastExec.Load())
	if last <= 0 {
		t.Fatal("no pass duration recorded")
	}
	admitted := []<-chan answer{goEstimate(ctx, e, 1)}
	within(t, b.entered, "the pass in flight")
	for i := 1; i <= 3; i++ {
		admitted = append(admitted, goEstimate(ctx, e, int32(1+i)))
		waitParked(t, e, i)
	}
	_, err := e.Estimate(ctx, q(0, 9))
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Reason != "queue" {
		t.Fatalf("want a queue shed, got %v", err)
	}
	// Three parked calls at two a pass are two passes, and one is in flight.
	if want := 3 * last; ov.RetryAfter != want {
		t.Fatalf("retry hint %v, want 3 passes of %v = %v", ov.RetryAfter, last, want)
	}
	for range 3 { // the pass in flight, then {2, 3}, then {4}
		b.release <- struct{}{}
	}
	for _, ch := range admitted {
		if a := within(t, ch, "an admitted caller"); a.err != nil {
			t.Fatal(a.err)
		}
	}
}

func TestZeroAdmissionUnchanged(t *testing.T) {
	e := New(&slowBackend{}, Config{CacheSize: -1})
	defer e.Close()
	ctx := context.Background()
	for i := range 100 {
		if _, err := e.Estimate(ctx, q(0, int32(i%7))); err != nil {
			t.Fatalf("no-admission estimate: %v", err)
		}
	}
	if s := e.Stats(); s.Shed != 0 || s.RateLimit != 0 {
		t.Fatalf("no-admission stats: %+v", s)
	}
}
