package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// exposition renders the registry as Prometheus text for substring asserts.
func exposition(t *testing.T, reg *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

func TestBudgetViolationFires(t *testing.T) {
	var logBuf bytes.Buffer
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{
		RingSize: 4,
		Metrics:  reg,
		Log:      slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	tr.SetBudgets(map[string]time.Duration{"plan_exec": time.Nanosecond})
	_, trace := tr.Start(context.Background(), "viol-1")
	trace.AddSpan("plan_exec", time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.Finish(trace)

	snap, ok := tr.Get("viol-1")
	if !ok {
		t.Fatal("trace not in ring")
	}
	if !snap.Slow {
		t.Fatal("budget violation must mark the trace slow even when total duration is healthy")
	}
	out := exposition(t, reg)
	if !strings.Contains(out, `duet_slo_violations_total{stage="plan_exec"} 1`) {
		t.Fatalf("violation counter missing from exposition:\n%s", out)
	}
	log := logBuf.String()
	for _, want := range []string{"slo budget exceeded", "trace_id=viol-1", "stage=plan_exec", "budget_us=", "observed_us="} {
		if !strings.Contains(log, want) {
			t.Fatalf("violation log missing %q in %q", want, log)
		}
	}
}

func TestBudgetUnderDoesNotFire(t *testing.T) {
	var logBuf bytes.Buffer
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{
		RingSize: 4,
		Metrics:  reg,
		Log:      slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	tr.SetBudgets(map[string]time.Duration{"plan_exec": time.Hour})
	_, trace := tr.Start(context.Background(), "ok-1")
	trace.AddSpan("plan_exec", time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.Finish(trace)

	snap, _ := tr.Get("ok-1")
	if snap.Slow {
		t.Fatal("under-budget span must not mark the trace slow")
	}
	if strings.Contains(exposition(t, reg), `duet_slo_violations_total{stage=`) {
		t.Fatal("under-budget span must not create a violation sample")
	}
	if logBuf.Len() != 0 {
		t.Fatalf("under-budget span must not log, got %q", logBuf.String())
	}
}

func TestZeroBudgetDisablesStage(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{RingSize: 4, Metrics: reg})
	tr.SetBudgets(map[string]time.Duration{"plan_exec": 0, "route": time.Hour})
	if b := tr.Budgets(); len(b) != 1 || b["route"] != time.Hour {
		t.Fatalf("zero budget should be dropped from the table, got %v", b)
	}
	_, trace := tr.Start(context.Background(), "zero-1")
	trace.AddSpan("plan_exec", time.Now().Add(-time.Second), time.Second)
	tr.Finish(trace)
	if snap, _ := tr.Get("zero-1"); snap.Slow {
		t.Fatal("stage with zero budget must not be checked")
	}
	if strings.Contains(exposition(t, reg), `duet_slo_violations_total{stage=`) {
		t.Fatal("disabled stage must not count violations")
	}
}

func TestSetBudgetsSwapsAtRuntime(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 4})
	_, trace := tr.Start(context.Background(), "pre")
	trace.AddSpan("plan_exec", time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.Finish(trace)
	if snap, _ := tr.Get("pre"); snap.Slow {
		t.Fatal("no budgets installed yet; nothing should fire")
	}
	tr.SetBudgets(map[string]time.Duration{"plan_exec": time.Nanosecond})
	_, trace = tr.Start(context.Background(), "post")
	trace.AddSpan("plan_exec", time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.Finish(trace)
	if snap, _ := tr.Get("post"); !snap.Slow {
		t.Fatal("budgets installed via SetBudgets must be enforced")
	}
	// Nil tracer stays safe through the whole budget surface.
	var nilTr *Tracer
	nilTr.SetBudgets(map[string]time.Duration{"x": 1})
	if nilTr.Budgets() != nil || nilTr.Dropped() != 0 {
		t.Fatal("nil tracer budget surface should be inert")
	}
}

func TestTraceDroppedCounter(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{RingSize: 2, Metrics: reg})
	finish := func(id string) {
		_, trace := tr.Start(context.Background(), id)
		tr.Finish(trace)
	}
	finish("a")
	finish("b")
	if tr.Dropped() != 0 {
		t.Fatalf("filling the ring is not a drop, got %d", tr.Dropped())
	}
	finish("c") // evicts "a", which no reader ever saw
	if tr.Dropped() != 1 {
		t.Fatalf("unread eviction must count, got %d", tr.Dropped())
	}
	tr.Recent() // reader catches up: everything currently in the ring is seen
	finish("d") // evicts "b", already read
	finish("e") // evicts "c", already read
	if tr.Dropped() != 1 {
		t.Fatalf("evicting read traces must not count, got %d", tr.Dropped())
	}
	finish("f") // evicts "d", unread since the last Recent
	if tr.Dropped() != 2 {
		t.Fatalf("post-read unread eviction must count, got %d", tr.Dropped())
	}
	if !strings.Contains(exposition(t, reg), "duet_trace_dropped_total 2") {
		t.Fatal("drop counter missing from exposition")
	}
}

func TestTracerGetMarksRead(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 2})
	for _, id := range []string{"a", "b", "c"} {
		_, trace := tr.Start(context.Background(), id)
		tr.Finish(trace)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("want 1 drop before Get, got %d", tr.Dropped())
	}
	if _, ok := tr.Get("b"); !ok {
		t.Fatal("Get should find a live ring entry")
	}
	if _, ok := tr.Get("a"); ok {
		t.Fatal("evicted trace should be gone")
	}
	_, trace := tr.Start(context.Background(), "d")
	tr.Finish(trace) // evicts "b" — but Get marked the ring read
	if tr.Dropped() != 1 {
		t.Fatalf("Get must count as a ring read, got %d drops", tr.Dropped())
	}
}

func TestSlowListingAndHandlers(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 8})
	tr.SetBudgets(map[string]time.Duration{"plan_exec": time.Nanosecond})
	_, fast := tr.Start(context.Background(), "fast-1")
	tr.Finish(fast)
	_, slow := tr.Start(context.Background(), "slow-1")
	slow.AddSpan("plan_exec", time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.Finish(slow)

	got := tr.Slow()
	if len(got) != 1 || got[0].TraceID != "slow-1" {
		t.Fatalf("Slow() = %+v, want just slow-1", got)
	}

	mux := http.NewServeMux()
	mux.Handle("GET /v1/debug/traces", tr.Handler())
	mux.Handle("GET /v1/debug/traces/{id}", tr.HandlerByID())

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/traces?slow=1", nil))
	var listing struct {
		Traces []TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("slow listing decode: %v", err)
	}
	if len(listing.Traces) != 1 || listing.Traces[0].TraceID != "slow-1" {
		t.Fatalf("?slow=1 listing = %+v", listing.Traces)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/traces/slow-1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("by-id lookup status %d", rec.Code)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("by-id decode: %v", err)
	}
	if snap.TraceID != "slow-1" || !snap.Slow || len(snap.Spans) != 1 {
		t.Fatalf("by-id snapshot = %+v", snap)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/traces/no-such-id", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace should 404, got %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "trace not found") {
		t.Fatalf("404 body = %q", rec.Body.String())
	}
}

func TestDropCounterConcurrent(t *testing.T) {
	// Hammer Finish/Recent from many goroutines: the invariant is only that
	// the counter never exceeds the number of evictions and the tracer stays
	// race-free (this test is most useful under -race).
	tr := NewTracer(TracerConfig{RingSize: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Recent()
		}
	}()
	for i := 0; i < 500; i++ {
		_, trace := tr.Start(context.Background(), fmt.Sprintf("t-%d", i))
		tr.Finish(trace)
	}
	<-done
	if tr.Dropped() > 500 {
		t.Fatalf("dropped %d > writes", tr.Dropped())
	}
}
