package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"duet"
	"duet/internal/relation"
)

// obsFleet is the traced variant of the cluster harness: every replica and
// the proxy run their own ObsSuite, exactly as separate duetserve processes
// would, so traces correlate across rings by id rather than by shared state.
type obsFleet struct {
	*fleet
	suites map[string]*duet.ObsSuite // replica URL -> its suite
	proxy  *duet.ObsSuite
}

func startObsFleet(t *testing.T, n int) *obsFleet {
	t.Helper()
	tbl := relation.Generate(relation.SynConfig{
		Name: "alpha", Rows: 300, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 30, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 12, Skew: 1.5, Parent: 0, Noise: 0.2},
		},
	})
	cfg := duet.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	cfg.Seed = 7
	base := &fleet{servers: map[string]*httptest.Server{}, dirs: map[string]string{}, tbl: tbl, cfg: cfg}
	of := &obsFleet{fleet: base, suites: map[string]*duet.ObsSuite{}}
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		suite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 64})
		reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir, Obs: suite.Metrics})
		t.Cleanup(func() { reg.Close() })
		if err := reg.Add("alpha", base.tbl, duet.New(base.tbl, base.cfg), duet.AddOpts{}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(duet.NewAPIServer(reg, nil, dir, suite).Handler())
		t.Cleanup(srv.Close)
		base.urls = append(base.urls, srv.URL)
		base.servers[srv.URL] = srv
		of.suites[srv.URL] = suite
	}
	of.proxy = duet.NewObsSuite(duet.ObsConfig{TraceRing: 64})
	proxy, err := duet.NewClusterProxy(duet.ClusterConfig{
		Members:     base.urls,
		Replication: 2,
		Health:      duet.ClusterHealthConfig{Interval: 20 * time.Millisecond},
		Obs:         of.proxy.Metrics,
		Tracer:      of.proxy.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	base.proxy = proxy
	base.handler = proxy.Handler()
	return of
}

// traces decodes a /v1/debug/traces payload.
func decodeTraces(t *testing.T, body string) []duet.ObsTraceSnapshot {
	t.Helper()
	var out struct {
		Traces []duet.ObsTraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode traces: %v\n%s", err, body)
	}
	return out.Traces
}

func findTrace(traces []duet.ObsTraceSnapshot, id string) *duet.ObsTraceSnapshot {
	for i := range traces {
		if traces[i].TraceID == id {
			return &traces[i]
		}
	}
	return nil
}

func spanNames(tr *duet.ObsTraceSnapshot) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Spans {
		out[sp.Name]++
	}
	return out
}

// TestFleetTracePropagation drives one traced estimate through the proxy and
// asserts the whole story: the response names its trace and replica, the
// proxy's ring holds the proxy-side spans, and the answering replica's ring
// holds the replica span plus the engine-stage spans — all under one id.
func TestFleetTracePropagation(t *testing.T) {
	f := startObsFleet(t, 3)

	rec := f.do(t, "POST", "/v1/estimate", `{"model":"alpha","query":"a<=5"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(duet.TraceHeader)
	if traceID == "" {
		t.Fatal("response is missing the trace header")
	}
	replica := rec.Header().Get(duet.ClusterReplicaHeader)
	if _, ok := f.suites[replica]; !ok {
		t.Fatalf("response names unknown replica %q", replica)
	}

	// The proxy's ring: one trace under the id, covering the proxy hop and
	// the forward attempt to the answering member.
	prec := f.do(t, "GET", "/v1/debug/traces", "")
	ptr := findTrace(decodeTraces(t, prec.Body.String()), traceID)
	if ptr == nil {
		t.Fatalf("proxy ring has no trace %s", traceID)
	}
	pnames := spanNames(ptr)
	if pnames["proxy"] == 0 || pnames["forward"] == 0 {
		t.Fatalf("proxy trace spans = %v; want proxy and forward", pnames)
	}

	// The replica's ring, read over HTTP like an operator would: the replica
	// hop plus at least three engine-stage spans, same id.
	resp, err := http.Get(replica + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	rtr := findTrace(decodeTraces(t, buf.String()), traceID)
	if rtr == nil {
		t.Fatalf("replica %s ring has no trace %s", replica, traceID)
	}
	rnames := spanNames(rtr)
	if rnames["replica"] == 0 {
		t.Fatalf("replica trace spans = %v; want a replica span", rnames)
	}
	stages := 0
	for _, stage := range []string{"route", "cache_lookup", "admission_wait", "batch_wait", "plan_exec"} {
		stages += rnames[stage]
	}
	if stages < 3 {
		t.Fatalf("replica trace has %d engine-stage spans (%v); want >= 3", stages, rnames)
	}
	// request_id correlation: the trace attrs carry the id the envelope uses.
	if rtr.Attrs["request_id"] == "" {
		t.Fatalf("replica trace attrs = %v; want a request_id", rtr.Attrs)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// metricSum sums every sample of one metric family in a Prometheus text
// payload, across label sets.
func metricSum(t *testing.T, text, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in payload:\n%s", name, text)
	}
	return sum
}

// TestFleetMetricsAgree scrapes the proxy and every replica after a burst of
// estimates and checks /v1/metrics against /v1/stats: both surfaces read the
// same instruments, so the counts must match exactly.
func TestFleetMetricsAgree(t *testing.T) {
	f := startObsFleet(t, 3)

	const k = 7
	for i := 0; i < k; i++ {
		rec := f.do(t, "POST", "/v1/estimate",
			fmt.Sprintf(`{"model":"alpha","query":"a<=%d"}`, i))
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}

	// Proxy: the exposition and the stats payload agree on forwards.
	mrec := f.do(t, "GET", "/v1/metrics", "")
	if mrec.Code != http.StatusOK {
		t.Fatalf("proxy metrics: %d", mrec.Code)
	}
	if ct := mrec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("proxy metrics content type = %q", ct)
	}
	forwarded := metricSum(t, mrec.Body.String(), "duet_proxy_forwarded_total")
	if forwarded != k {
		t.Fatalf("duet_proxy_forwarded_total = %v, want %d", forwarded, k)
	}
	srec := f.do(t, "GET", "/v1/stats", "")
	var stats struct {
		Proxy struct {
			Forwarded uint64 `json:"forwarded"`
		} `json:"proxy"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Proxy.Forwarded != uint64(forwarded) {
		t.Fatalf("stats forwarded = %d, metrics = %v; surfaces disagree", stats.Proxy.Forwarded, forwarded)
	}

	// Replicas: engine request counters sum to the forwarded total, and each
	// replica's exposition matches its own /v1/stats engine counter.
	var engineTotal float64
	for _, url := range f.urls {
		resp, err := http.Get(url + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text := readAll(t, resp)
		got := metricSum(t, text, "duet_serve_requests_total")
		engineTotal += got

		sresp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var rs struct {
			PerModel map[string]struct {
				Requests uint64 `json:"requests"`
			} `json:"per_model"`
		}
		body := readAll(t, sresp)
		if err := json.Unmarshal([]byte(body), &rs); err != nil {
			t.Fatalf("decode %s stats: %v\n%s", url, err, body)
		}
		if rs.PerModel["alpha"].Requests != uint64(got) {
			t.Fatalf("%s: stats requests = %d, metrics = %v; surfaces disagree",
				url, rs.PerModel["alpha"].Requests, got)
		}
	}
	if engineTotal != k {
		t.Fatalf("fleet-wide duet_serve_requests_total = %v, want %d", engineTotal, k)
	}
}

// stitchedTrace mirrors the proxy aggregation endpoint's response shape.
type stitchedTrace struct {
	TraceID    string   `json:"trace_id"`
	DurationUS int64    `json:"duration_us"`
	Slow       bool     `json:"slow"`
	Partial    bool     `json:"partial"`
	Sources    []string `json:"sources"`
	Spans      []struct {
		Source     string `json:"source"`
		Name       string `json:"name"`
		OffsetUS   int64  `json:"offset_us"`
		DurationUS int64  `json:"duration_us"`
	} `json:"spans"`
}

// TestFleetTraceAggregation drives one traced estimate through the proxy and
// reads the stitched fleet-wide view back from the proxy's aggregation
// endpoint: one trace id, proxy-side and replica-side spans merged onto a
// single ordered timeline, no partial flag.
func TestFleetTraceAggregation(t *testing.T) {
	f := startObsFleet(t, 3)

	rec := f.do(t, "POST", "/v1/estimate", `{"model":"alpha","query":"a<=5"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(duet.TraceHeader)
	replica := rec.Header().Get(duet.ClusterReplicaHeader)

	arec := f.do(t, "GET", "/v1/debug/traces/"+traceID, "")
	if arec.Code != http.StatusOK {
		t.Fatalf("aggregation endpoint: %d %s", arec.Code, arec.Body.String())
	}
	var st stitchedTrace
	if err := json.Unmarshal(arec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode stitched trace: %v\n%s", err, arec.Body.String())
	}
	if st.TraceID != traceID {
		t.Fatalf("stitched trace id = %q, want %q", st.TraceID, traceID)
	}
	if st.Partial {
		t.Fatal("all members healthy; stitched view must not be partial")
	}
	sources := map[string]bool{}
	for _, s := range st.Sources {
		sources[s] = true
	}
	if !sources["proxy"] || !sources[replica] {
		t.Fatalf("stitched sources = %v; want proxy and %s", st.Sources, replica)
	}
	// The span tree is complete: proxy hop + forward from the proxy's ring,
	// replica hop + >= 3 engine stages from the replica's, ordered by offset.
	bySource := map[string]map[string]int{}
	for _, sp := range st.Spans {
		if bySource[sp.Source] == nil {
			bySource[sp.Source] = map[string]int{}
		}
		bySource[sp.Source][sp.Name]++
	}
	if bySource["proxy"]["proxy"] == 0 || bySource["proxy"]["forward"] == 0 {
		t.Fatalf("proxy-side spans = %v; want proxy and forward", bySource["proxy"])
	}
	if bySource[replica]["replica"] == 0 {
		t.Fatalf("replica-side spans = %v; want a replica span", bySource[replica])
	}
	stages := 0
	for _, stage := range []string{"route", "cache_lookup", "admission_wait", "batch_wait", "plan_exec"} {
		stages += bySource[replica][stage]
	}
	if stages < 3 {
		t.Fatalf("stitched view has %d engine-stage spans (%v); want >= 3", stages, bySource[replica])
	}
	for i := 1; i < len(st.Spans); i++ {
		if st.Spans[i].OffsetUS < st.Spans[i-1].OffsetUS {
			t.Fatalf("stitched spans out of order at %d: %+v", i, st.Spans)
		}
	}

	// A trace no ring holds is an authoritative fleet-wide 404, not partial.
	nrec := f.do(t, "GET", "/v1/debug/traces/no-such-trace", "")
	if nrec.Code != http.StatusNotFound {
		t.Fatalf("missing trace: %d, want 404", nrec.Code)
	}
	if strings.Contains(nrec.Body.String(), `"partial":true`) {
		t.Fatalf("clean misses are authoritative, not partial: %s", nrec.Body.String())
	}
}

// TestFleetTraceAggregationPartial takes one member down and asserts the
// aggregation endpoint degrades instead of failing: the live replica's spans
// still come back, flagged "partial": true.
func TestFleetTraceAggregationPartial(t *testing.T) {
	tbl := relation.Generate(relation.SynConfig{
		Name: "alpha", Rows: 300, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 30, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 12, Skew: 1.5, Parent: 0, Noise: 0.2},
		},
	})
	cfg := duet.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	cfg.Seed = 7
	dir := t.TempDir()
	suite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 16})
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir, Obs: suite.Metrics})
	t.Cleanup(func() { reg.Close() })
	if err := reg.Add("alpha", tbl, duet.New(tbl, cfg), duet.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(duet.NewAPIServer(reg, nil, dir, suite).Handler())
	t.Cleanup(live.Close)

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // on the member list, but nothing listens

	psuite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 16})
	proxy, err := duet.NewClusterProxy(duet.ClusterConfig{
		Members: []string{live.URL, deadURL},
		Health:  duet.ClusterHealthConfig{Interval: time.Hour}, // no flips mid-test
		Obs:     psuite.Metrics,
		Tracer:  psuite.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	// Seed the trace on the live replica directly (routing through the proxy
	// could land on the dead member), then read the stitched view back.
	const traceID = "agg-partial-1"
	req, err := http.NewRequest("POST", live.URL+"/v1/estimate",
		strings.NewReader(`{"model":"alpha","query":"a<=5"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(duet.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica estimate: %d", resp.StatusCode)
	}

	rec := httptest.NewRecorder()
	proxy.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces/"+traceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("aggregation with a dead member must still answer: %d %s", rec.Code, rec.Body.String())
	}
	var st stitchedTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Partial {
		t.Fatal("a dead member means the merge is partial")
	}
	names := map[string]int{}
	for _, sp := range st.Spans {
		if sp.Source == live.URL {
			names[sp.Name]++
		}
	}
	if names["replica"] == 0 || names["plan_exec"] == 0 {
		t.Fatalf("partial merge lost the live replica's spans: %+v", st.Spans)
	}
}

// TestFleetExemplars checks the metrics expositions carry OpenMetrics
// exemplars referencing the trace that produced them: the proxy's HTTP
// histogram and the answering replica's engine-stage histogram both link a
// bucket back to the request's trace id.
func TestFleetExemplars(t *testing.T) {
	f := startObsFleet(t, 3)

	rec := f.do(t, "POST", "/v1/estimate", `{"model":"alpha","query":"a<=5"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(duet.TraceHeader)
	replica := rec.Header().Get(duet.ClusterReplicaHeader)
	marker := `# {trace_id="` + traceID + `"}`

	mrec := f.do(t, "GET", "/v1/metrics", "")
	if !strings.Contains(mrec.Body.String(), marker) {
		t.Fatalf("proxy exposition has no exemplar for %s:\n%s", traceID, mrec.Body.String())
	}

	resp, err := http.Get(replica + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "duet_serve_stage_seconds_bucket") && strings.Contains(line, marker) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("replica stage histogram has no exemplar for %s:\n%s", traceID, text)
	}
}

// TestFleetSLOViolation arms a 1ns plan_exec budget on every replica (other
// stages effectively unbounded) and asserts exactly that stage's violation
// counter trips, the trace is marked slow, and the proxy's fleet-wide
// ?slow=1 listing surfaces the stitched trace.
func TestFleetSLOViolation(t *testing.T) {
	f := startObsFleet(t, 3)
	budgets := map[string]time.Duration{
		"plan_exec":      time.Nanosecond,
		"route":          time.Hour,
		"cache_lookup":   time.Hour,
		"admission_wait": time.Hour,
		"batch_wait":     time.Hour,
		"forward":        time.Hour,
	}
	for _, suite := range f.suites {
		suite.Tracer.SetBudgets(budgets)
	}

	rec := f.do(t, "POST", "/v1/estimate", `{"model":"alpha","query":"a<=5"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(duet.TraceHeader)
	replica := rec.Header().Get(duet.ClusterReplicaHeader)

	// The answering replica's exposition: plan_exec violated, nothing else.
	resp, err := http.Get(replica + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	if got := metricSum(t, text, "duet_slo_violations_total"); got < 1 {
		t.Fatalf("duet_slo_violations_total = %v, want >= 1", got)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "duet_slo_violations_total{") && !strings.Contains(line, `stage="plan_exec"`) {
			t.Fatalf("only plan_exec was injected slow, but found: %s", line)
		}
	}

	// The stitched fleet-wide slow listing surfaces the trace, marked slow by
	// stage even though its total duration is nowhere near a slow threshold.
	srec := f.do(t, "GET", "/v1/debug/traces?slow=1", "")
	var listing struct {
		Traces  []stitchedTrace `json:"traces"`
		Partial bool            `json:"partial"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("decode slow listing: %v\n%s", err, srec.Body.String())
	}
	if listing.Partial {
		t.Fatal("all members healthy; slow listing must not be partial")
	}
	var hit *stitchedTrace
	for i := range listing.Traces {
		if listing.Traces[i].TraceID == traceID {
			hit = &listing.Traces[i]
		}
	}
	if hit == nil {
		t.Fatalf("fleet slow listing is missing trace %s: %s", traceID, srec.Body.String())
	}
	if !hit.Slow {
		t.Fatal("budget-violated trace must be marked slow in the stitched listing")
	}
}

// TestProxyErrorAttribution sheds a request against a fleet whose only
// member is gone and checks the 503 is attributable: the replica header
// names the member tried and the envelope carries the trace id.
func TestProxyErrorAttribution(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the member exists on the ring but nothing listens

	suite := duet.NewObsSuite(duet.ObsConfig{TraceRing: 16})
	proxy, err := duet.NewClusterProxy(duet.ClusterConfig{
		Members: []string{deadURL},
		Health:  duet.ClusterHealthConfig{Interval: time.Hour}, // no flips mid-test
		Obs:     suite.Metrics,
		Tracer:  suite.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	handler := proxy.Handler()

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/estimate",
		strings.NewReader(`{"model":"alpha","query":"a<=5"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get(duet.ClusterReplicaHeader); got != deadURL {
		t.Fatalf("replica header = %q, want %q", got, deadURL)
	}
	traceID := rec.Header().Get(duet.TraceHeader)
	if traceID == "" {
		t.Fatal("shed response is missing the trace header")
	}
	var envelope struct {
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
		Error     struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.TraceID != traceID {
		t.Fatalf("envelope trace_id = %q, header = %q", envelope.TraceID, traceID)
	}
	if envelope.Error.Code != "unavailable" {
		t.Fatalf("error code = %q", envelope.Error.Code)
	}

	// The shed is counted, and the member's error counter names it.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if got := metricSum(t, rec.Body.String(), "duet_proxy_rejected_total"); got != 1 {
		t.Fatalf("duet_proxy_rejected_total = %v, want 1", got)
	}
	if got := metricSum(t, rec.Body.String(), "duet_proxy_member_errors_total"); got != 1 {
		t.Fatalf("duet_proxy_member_errors_total = %v, want 1", got)
	}
}
