package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// AdmissionConfig bounds the load one estimator accepts. The zero value
// admits everything (the pre-admission behavior). Admission is what lets a
// replica shed overload per model instead of letting one hot model's queue
// absorb the whole process: a token bucket caps the sustained query rate and
// a queue bound caps how much latency backlog may accumulate behind the
// backend before further requests are rejected outright.
type AdmissionConfig struct {
	// QPS is the sustained queries-per-second budget across Estimate and
	// EstimateBatch items. <= 0 disables rate limiting.
	QPS float64
	// Burst is the token-bucket depth: how many queries above the sustained
	// rate may be admitted back-to-back. Default max(1, QPS) when QPS is set.
	Burst int
	// MaxQueue bounds the calls (Estimate or EstimateBatch, one each) parked
	// behind a running forward pass. A call that finds the backend busy and
	// the backlog full is shed immediately, before it spends any rate
	// budget. <= 0 lets callers park without bound.
	MaxQueue int
}

func (a AdmissionConfig) withDefaults() AdmissionConfig {
	if a.QPS > 0 && a.Burst <= 0 {
		a.Burst = int(math.Max(1, a.QPS))
	}
	return a
}

// ErrOverloaded marks estimates rejected by admission control. Errors carry
// a *OverloadError with the retry hint; match with errors.Is(err,
// ErrOverloaded) and unwrap with errors.As.
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadError reports one shed request: which bound tripped and how long a
// client should wait before retrying (the token-bucket refill horizon, or a
// queue-drain guess). It unwraps to ErrOverloaded.
type OverloadError struct {
	// Reason is "rate" (token bucket empty) or "queue" (backlog full).
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s limit); retry after %s", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// bucket is a monotonic-clock token bucket. Tokens refill continuously at
// rate per second up to burst; take is all-or-nothing so a batch is either
// admitted whole or shed whole (partial admission would answer a fraction of
// a batch, which no caller can use).
type bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take admits n queries, or reports the wait until they could be admitted.
func (b *bucket) take(n int) (bool, time.Duration) {
	need := float64(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	b.last = now
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	deficit := need - b.tokens
	if need > b.burst {
		// The batch can never fit the bucket; report the full-refill horizon
		// so the client splits or backs off hard.
		deficit = need
	}
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// admit decides, in one critical section, what becomes of a call with
// misses: shed (backlog full, then rate budget spent — in that order, so a
// call shed for room never spends tokens), lead (the backend was idle and is
// now the caller's, with c alone in e.batch), or parked behind the pass in
// flight. timed stamps the admission instant for the stage clocks.
func (e *Estimator) admit(c *call, timed bool) (lead bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return false, ErrClosed
	}
	a := e.cfg.Admission
	if e.busy && a.MaxQueue > 0 && len(e.pending) >= a.MaxQueue {
		e.met.shedQueue.Add(uint64(len(c.qs)))
		return false, &OverloadError{Reason: "queue", RetryAfter: e.queueRetry()}
	}
	if e.bucket != nil {
		if ok, wait := e.bucket.take(len(c.qs)); !ok {
			e.met.shedRate.Add(uint64(len(c.qs)))
			return false, &OverloadError{Reason: "rate", RetryAfter: wait}
		}
	}
	if timed {
		c.enq = time.Now()
	}
	if e.busy {
		e.pending = append(e.pending, c)
		return false, nil
	}
	e.busy = true
	e.idle.Add(1)
	e.batch = append(e.batch[:0], c)
	return true, nil
}

// queueRetry estimates how long until a full backlog has drained enough to
// retry: the backlog size over the rate budget when one is set, otherwise
// the passes the backlog needs, plus the one in flight, at the duration of
// the latest pass. Callers hold e.mu.
func (e *Estimator) queueRetry() time.Duration {
	if a := e.cfg.Admission; a.QPS > 0 {
		return time.Duration(float64(a.MaxQueue) / a.QPS * float64(time.Second))
	}
	passes := 1 + (len(e.pending)+e.cfg.MaxBatch-1)/e.cfg.MaxBatch
	if d := time.Duration(passes) * time.Duration(e.lastExec.Load()); d > 0 {
		return d
	}
	return 10 * time.Millisecond // no pass has finished yet
}
