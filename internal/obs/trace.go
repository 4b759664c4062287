package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries the trace id across HTTP hops: the proxy mints (or
// adopts) an id, sends it to the replica, and the replica's spans join the
// same trace. Responses echo it so callers can look the trace up later.
const TraceHeader = "X-Duet-Trace"

var traceSeq atomic.Uint64

// NewTraceID returns a process-unique trace id, same shape as request ids
// (hex nanotime, hex sequence).
func NewTraceID() string {
	return fmt.Sprintf("%x-%x", time.Now().UnixNano(), traceSeq.Add(1))
}

// Span is one timed stage inside a trace. Created by Trace.StartSpan and
// closed by End; nil-safe throughout.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	attrs []string // alternating key, value
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, key, value)
}

// End closes the span, recording its duration into the owning trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.addSpan(s.name, s.start, time.Since(s.start), s.attrs)
}

// Trace accumulates spans for one request. Spans may be added from multiple
// goroutines (the engine's dispatcher closes batch spans on behalf of
// waiting callers), so the span list is mutex-guarded.
type Trace struct {
	id    string
	start time.Time
	tr    *Tracer

	mu    sync.Mutex
	spans []SpanSnapshot
	attrs []string
	slow  bool // set when any span blows its SLO budget
}

// ID returns the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a named span; close it with End.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, start: time.Now()}
}

// AddSpan records an already-measured span (used when the stage was timed
// anyway, e.g. the dispatcher's per-flush clock).
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	t.addSpan(name, start, d, attrs)
}

// SetAttr attaches a key/value annotation to the trace itself.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, key, value)
	t.mu.Unlock()
}

func (t *Trace) addSpan(name string, start time.Time, d time.Duration, attrs []string) {
	snap := SpanSnapshot{
		Name:       name,
		OffsetUS:   start.Sub(t.start).Microseconds(),
		DurationUS: d.Microseconds(),
	}
	if len(attrs) > 1 {
		snap.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			snap.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, snap)
	t.mu.Unlock()
	t.tr.checkBudget(t, name, d)
}

// SpanSnapshot is the immutable record of one finished span.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	OffsetUS   int64             `json:"offset_us"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceSnapshot is the immutable record of one finished trace, as served by
// /v1/debug/traces. Slow is set when the trace crossed the tracer's slow
// threshold OR any span blew its per-stage SLO budget — a trace can be slow
// by stage even when its total duration looks healthy.
type TraceSnapshot struct {
	TraceID    string            `json:"trace_id"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Slow       bool              `json:"slow,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanSnapshot    `json:"spans"`
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// RingSize bounds the in-memory trace ring (default 256).
	RingSize int
	// SlowThreshold, when positive, logs any trace at least this long
	// through Log at Warn level with a compact span summary.
	SlowThreshold time.Duration
	// Metrics, when set, exports the tracer's own instruments:
	// duet_slo_violations_total{stage} and duet_trace_dropped_total. A nil
	// registry keeps them as detached (still counting) instruments.
	Metrics *Registry
	// Log receives slow-trace and budget-violation reports; slog.Default()
	// when nil.
	Log *slog.Logger
}

// Tracer owns the bounded ring of recent traces. A nil Tracer disables
// tracing: Start returns the context unchanged and a nil Trace.
type Tracer struct {
	cfg TracerConfig

	budgets    atomic.Pointer[map[string]time.Duration]
	violations *CounterVec
	dropped    *Counter

	mu      sync.Mutex
	ring    []TraceSnapshot // fixed capacity, write cursor wraps
	seq     []uint64        // write sequence per slot, to detect unread evictions
	next    int
	n       int
	wseq    uint64 // total snapshots written
	readSeq uint64 // wseq high-water mark at the last ring read
}

// NewTracer creates a tracer with a bounded trace ring.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	tr := &Tracer{
		cfg:  cfg,
		ring: make([]TraceSnapshot, cfg.RingSize),
		seq:  make([]uint64, cfg.RingSize),
		violations: cfg.Metrics.CounterVec("duet_slo_violations_total",
			"Per-stage SLO budget violations: spans whose duration exceeded the configured budget.", "stage"),
		dropped: cfg.Metrics.Counter("duet_trace_dropped_total",
			"Traces evicted from the bounded ring before any reader saw them."),
	}
	return tr
}

// SetBudgets replaces the per-stage SLO budget table (copying the map), so
// roofline-derived defaults can be installed after model plans are known. It
// maps span names (admission_wait, cache_lookup, batch_wait, plan_exec,
// route, forward) to budgets. A span whose duration exceeds its budget
// increments duet_slo_violations_total{stage}, marks the trace slow
// regardless of total duration, and logs one structured line; a zero or
// absent budget disables its stage's check. Safe on a nil tracer and with a
// nil map (disables all checks).
func (tr *Tracer) SetBudgets(b map[string]time.Duration) {
	if tr == nil {
		return
	}
	cp := make(map[string]time.Duration, len(b))
	for k, v := range b {
		if v > 0 {
			cp[k] = v
		}
	}
	tr.budgets.Store(&cp)
}

// Budgets returns a copy of the active per-stage budget table.
func (tr *Tracer) Budgets() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	b := tr.budgets.Load()
	if b == nil {
		return nil
	}
	cp := make(map[string]time.Duration, len(*b))
	for k, v := range *b {
		cp[k] = v
	}
	return cp
}

// Dropped returns how many traces were evicted from the ring unread.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped.Value()
}

// checkBudget enforces the per-stage SLO budget at span close. One violation
// is enough to mark the whole trace slow; every violation counts and logs.
func (tr *Tracer) checkBudget(t *Trace, stage string, d time.Duration) {
	if tr == nil {
		return
	}
	b := tr.budgets.Load()
	if b == nil {
		return
	}
	budget := (*b)[stage]
	if budget <= 0 || d <= budget {
		return
	}
	tr.violations.With(stage).Inc()
	t.mu.Lock()
	t.slow = true
	t.mu.Unlock()
	logger := tr.cfg.Log
	if logger == nil {
		logger = slog.Default()
	}
	logger.Warn("slo budget exceeded",
		slog.String("trace_id", t.id),
		slog.String("stage", stage),
		slog.Int64("budget_us", budget.Microseconds()),
		slog.Int64("observed_us", d.Microseconds()))
}

type traceCtxKey struct{}

// Start opens a trace under the given id (minting one when empty) and
// returns a context carrying it. On a nil tracer the context passes through
// untouched and the returned trace is nil — every downstream call is a no-op.
func (tr *Tracer) Start(ctx context.Context, id string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	if id == "" {
		id = NewTraceID()
	}
	t := &Trace{id: id, start: time.Now(), tr: tr}
	return context.WithValue(ctx, traceCtxKey{}, t), t
}

// FromContext returns the active trace, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// Finish seals the trace, pushes the snapshot into the ring, and reports it
// through the structured log if it crossed the slow threshold.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	snap := TraceSnapshot{
		TraceID:    t.id,
		Start:      t.start,
		DurationUS: d.Microseconds(),
		Slow:       t.slow || (tr.cfg.SlowThreshold > 0 && d >= tr.cfg.SlowThreshold),
		Spans:      append([]SpanSnapshot(nil), t.spans...),
	}
	if len(t.attrs) > 1 {
		snap.Attrs = make(map[string]string, len(t.attrs)/2)
		for i := 0; i+1 < len(t.attrs); i += 2 {
			snap.Attrs[t.attrs[i]] = t.attrs[i+1]
		}
	}
	t.mu.Unlock()
	sort.SliceStable(snap.Spans, func(i, j int) bool { return snap.Spans[i].OffsetUS < snap.Spans[j].OffsetUS })

	tr.mu.Lock()
	// An occupied slot whose write sequence is newer than the last ring read
	// holds a trace no reader ever saw — overwriting it is a silent data loss
	// the duet_trace_dropped_total counter makes visible.
	evictedUnread := tr.n == len(tr.ring) && tr.seq[tr.next] > tr.readSeq
	tr.wseq++
	tr.ring[tr.next] = snap
	tr.seq[tr.next] = tr.wseq
	tr.next = (tr.next + 1) % len(tr.ring)
	if tr.n < len(tr.ring) {
		tr.n++
	}
	tr.mu.Unlock()
	if evictedUnread {
		tr.dropped.Inc()
	}

	if tr.cfg.SlowThreshold > 0 && d >= tr.cfg.SlowThreshold {
		logger := tr.cfg.Log
		if logger == nil {
			logger = slog.Default()
		}
		var stages strings.Builder
		for i, sp := range snap.Spans {
			if i > 0 {
				stages.WriteByte(' ')
			}
			fmt.Fprintf(&stages, "%s=%dus", sp.Name, sp.DurationUS)
		}
		attrs := []any{
			slog.String("trace_id", snap.TraceID),
			slog.Int64("duration_us", snap.DurationUS),
			slog.String("stages", stages.String()),
		}
		for k, v := range snap.Attrs {
			attrs = append(attrs, slog.String(k, v))
		}
		logger.Warn("slow query", attrs...)
	}
}

// Recent returns the ring's traces, newest first, and marks the ring read
// (for drop accounting).
func (tr *Tracer) Recent() []TraceSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.readSeq = tr.wseq
	out := make([]TraceSnapshot, 0, tr.n)
	for i := 0; i < tr.n; i++ {
		idx := (tr.next - 1 - i + len(tr.ring)) % len(tr.ring)
		out = append(out, tr.ring[idx])
	}
	return out
}

// Get returns the newest ring entry with the given trace id.
func (tr *Tracer) Get(id string) (TraceSnapshot, bool) {
	if tr == nil || id == "" {
		return TraceSnapshot{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.readSeq = tr.wseq
	for i := 0; i < tr.n; i++ {
		idx := (tr.next - 1 - i + len(tr.ring)) % len(tr.ring)
		if tr.ring[idx].TraceID == id {
			return tr.ring[idx], true
		}
	}
	return TraceSnapshot{}, false
}

// Slow returns the ring's slow-marked traces (threshold or budget violation),
// worst first by total duration.
func (tr *Tracer) Slow() []TraceSnapshot {
	out := tr.Recent()
	kept := out[:0]
	for _, s := range out {
		if s.Slow {
			kept = append(kept, s)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].DurationUS > kept[j].DurationUS })
	return kept
}

// Handler serves the recent-trace ring as JSON at /v1/debug/traces;
// ?slow=1 restricts the listing to slow-marked traces, worst first.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := tr.Recent()
		if req.URL.Query().Get("slow") == "1" {
			traces = tr.Slow()
		}
		json.NewEncoder(w).Encode(struct {
			Traces []TraceSnapshot `json:"traces"`
		}{Traces: traces})
	})
}

// HandlerByID serves one ring entry as JSON at /v1/debug/traces/{id},
// reading the id from the request's path value. 404 when the ring has no
// trace under that id (it may have been evicted, or never finished here).
func (tr *Tracer) HandlerByID() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap, ok := tr.Get(req.PathValue("id"))
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "trace not found"})
			return
		}
		json.NewEncoder(w).Encode(snap)
	})
}
