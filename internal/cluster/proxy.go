package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"duet/internal/api"
	"duet/internal/obs"
)

// Config assembles a proxy over a replica fleet.
type Config struct {
	// Members are the replicas' base URLs, e.g. "http://10.0.0.1:8080".
	Members []string
	// Replication is how many replicas serve each model (R). Clamped to the
	// member count; default 2.
	Replication int
	// VNodes per member on the placement ring; default DefaultVNodes.
	VNodes int
	// Health tunes member probing.
	Health HealthConfig
	// OnHealthChange, when non-nil, observes member mark-down/mark-up flips.
	OnHealthChange func(addr string, healthy bool)
	// Obs, when non-nil, registers the proxy's counters (fan-out, failover,
	// mark-down, forward latency) and serves them at /v1/metrics.
	Obs *obs.Registry
	// Tracer, when non-nil, traces forwarded requests (joining a client's
	// X-Duet-Trace or minting one) and serves the ring at /v1/debug/traces.
	Tracer *obs.Tracer
	// Log, when non-nil, reports member health flips; nil uses slog.Default.
	Log *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the proxy.
	Pprof bool
}

// memberTimeout bounds each request the proxy sends a member: a forwarded
// estimate, ingest or feedback, a rollout's pull, a fleet view's GET.
const memberTimeout = 30 * time.Second

// Proxy is the thin stateless routing tier: it owns no models, keeps no
// per-request state beyond counters, and can be restarted freely. Placement
// is pure — any proxy instance over the same member list computes the same
// ring — so running several proxies needs no coordination.
type Proxy struct {
	cfg   Config
	ring  *Ring
	check *Checker

	client *http.Client
	start  time.Time

	met proxyMetrics // the routing counters; /v1/stats and /v1/metrics read the same instruments
	log *slog.Logger
}

// NewProxy validates the config, builds the ring, and starts health probing.
// Call Close to stop the prober.
func NewProxy(cfg Config) (*Proxy, error) {
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Members) {
		cfg.Replication = len(cfg.Members)
	}
	ring, err := NewRing(cfg.Members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:    cfg,
		ring:   ring,
		client: &http.Client{Timeout: memberTimeout},
		start:  time.Now(),
		met:    newProxyMetrics(cfg.Obs),
		log:    cfg.Log,
	}
	for _, m := range cfg.Members {
		p.met.healthy.With(m).Set(1) // probing starts optimistic: everyone in rotation
	}
	p.check = NewChecker(cfg.Members, cfg.Health, p.onHealthChange)
	p.check.Start()
	return p, nil
}

// onHealthChange records every member flip — counter, gauge, structured log —
// then relays to the configured callback.
func (p *Proxy) onHealthChange(addr string, healthy bool) {
	if healthy {
		p.met.healthFlip.With(addr, "up").Inc()
		p.met.healthy.With(addr).Set(1)
		p.logger().Info("member back in rotation", "member", addr)
	} else {
		p.met.healthFlip.With(addr, "down").Inc()
		p.met.healthy.With(addr).Set(0)
		p.logger().Warn("member marked down", "member", addr)
	}
	if p.cfg.OnHealthChange != nil {
		p.cfg.OnHealthChange(addr, healthy)
	}
}

func (p *Proxy) logger() *slog.Logger {
	if p.log != nil {
		return p.log
	}
	return slog.Default()
}

// Close stops the health prober.
func (p *Proxy) Close() { p.check.Stop() }

// Ring exposes the placement ring (for tests and the cluster endpoint).
func (p *Proxy) Ring() *Ring { return p.ring }

// Owners returns a model's replica set in preference order.
func (p *Proxy) Owners(model string) []string { return p.ring.Owners(model, p.cfg.Replication) }

// Handler routes the proxy's endpoints: the forwarding data plane
// (/v1/estimate, /v1/ingest, /v1/feedback), the rollout control plane, and
// the fleet views (/v1/healthz, /v1/stats, /v1/models, /v1/cluster).
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", p.estimate)
	mux.HandleFunc("POST /v1/ingest", p.primaryOnly)
	mux.HandleFunc("POST /v1/feedback", p.primaryOnly)
	mux.HandleFunc("POST /v1/models/{name}/rollout", api.RequireJSON(p.rollout))
	mux.HandleFunc("GET /v1/models", p.models)
	mux.HandleFunc("GET /v1/healthz", p.healthz)
	mux.HandleFunc("GET /v1/stats", p.stats)
	mux.HandleFunc("GET /v1/cluster", p.cluster)
	if p.cfg.Obs != nil {
		mux.Handle("GET /v1/metrics", p.cfg.Obs.Handler())
	}
	if p.cfg.Tracer != nil {
		mux.HandleFunc("GET /v1/debug/traces", p.traces)
		mux.HandleFunc("GET /v1/debug/traces/{id}", p.traceByID)
	}
	if p.cfg.Pprof {
		api.MountPprof(mux)
	}
	return api.WithRequestID(api.WithTracing(p.cfg.Tracer, "proxy", api.WithHTTPMetrics(p.cfg.Obs, mux)))
}

// routeBody is the slice of an estimate/ingest/feedback body the proxy needs
// for placement: the model name, or a query to hash when the model is
// inferred by the replica's router.
type routeBody struct {
	Model   string   `json:"model"`
	Query   string   `json:"query"`
	Queries []string `json:"queries"`
}

// routingKey picks the placement key: the model name when the client names
// one, else the first query text. Keying inferred-model requests by query
// text keeps repeats of the same expression on the same replica, so the
// fleet's result caches stay warm even without a model name.
func (b routeBody) routingKey() string {
	switch {
	case b.Model != "":
		return b.Model
	case b.Query != "":
		return b.Query
	case len(b.Queries) > 0:
		return b.Queries[0]
	default:
		return ""
	}
}

// readRouteBody reads a forwarded request's body and the routeBody in it.
// When either fails it answers 400 itself and reports false.
func readRouteBody(w http.ResponseWriter, r *http.Request) (body []byte, rb routeBody, ok bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		api.WriteError(w, r, http.StatusBadRequest, fmt.Errorf("read request: %w", err), nil)
		return nil, rb, false
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		api.WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return nil, rb, false
	}
	return body, rb, true
}

// estimate forwards to the key's owners in preference order, skipping
// marked-down members and failing over on transport errors or 502/503 —
// estimates are idempotent, so a retry on the next replica is safe. Other
// statuses (including 429 sheds and 4xx client errors) relay as-is.
func (p *Proxy) estimate(w http.ResponseWriter, r *http.Request) {
	body, rb, ok := readRouteBody(w, r)
	if !ok {
		return
	}
	key := rb.routingKey()
	if key == "" {
		api.WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`provide exactly one of "query" or "queries"`), nil)
		return
	}
	owners := p.Owners(key)
	tried := 0
	last := ""
	for _, addr := range p.inRotation(owners) {
		if tried > 0 {
			p.met.failovers.Inc()
		}
		tried++
		last = addr
		if p.forward(w, r, addr, body) {
			return
		}
	}
	p.met.rejected.Inc()
	if last != "" {
		// Attribute the shed to the last replica tried, so a 503 in a client
		// log points at a concrete member instead of an anonymous fleet.
		w.Header().Set(ReplicaHeader, last)
	}
	api.WriteError(w, r, http.StatusServiceUnavailable,
		fmt.Errorf("no replica for key %q is reachable (owners %v)", key, owners),
		map[string]any{"owners": owners, "tried": tried})
}

// primaryOnly forwards a mutating request to the model's first healthy
// owner, without failover: ingest and feedback append state, so blind
// retries could double-apply them.
func (p *Proxy) primaryOnly(w http.ResponseWriter, r *http.Request) {
	body, rb, ok := readRouteBody(w, r)
	if !ok {
		return
	}
	if rb.Model == "" {
		api.WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`"model" is required`), nil)
		return
	}
	owners := p.Owners(rb.Model)
	rotation := p.inRotation(owners)
	if len(rotation) == 0 {
		p.met.rejected.Inc()
		api.WriteError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("no replica for model %q is reachable", rb.Model),
			map[string]any{"owners": owners})
		return
	}
	if !p.forward(w, r, rotation[0], body) {
		p.met.rejected.Inc()
		w.Header().Set(ReplicaHeader, rotation[0])
		api.WriteError(w, r, http.StatusBadGateway,
			fmt.Errorf("primary owner %s did not answer", rotation[0]), nil)
	}
}

// inRotation filters the owner preference list down to members currently
// marked healthy. When every owner is down, the full list is returned — a
// probe race may be stale, and trying a "down" replica yields a concrete
// error instead of a guess.
func (p *Proxy) inRotation(owners []string) []string {
	healthy := make([]string, 0, len(owners))
	for _, o := range owners {
		if p.check.Healthy(o) {
			healthy = append(healthy, o)
		}
	}
	if len(healthy) == 0 {
		return owners
	}
	return healthy
}

// ReplicaHeader names the replica that answered a forwarded request — or,
// on a proxy-origin 502/503, the last member the proxy tried — so every
// response (including sheds) is attributable to a concrete member.
const ReplicaHeader = "X-Duet-Replica"

// forward relays one request to the same path on a replica. It reports true
// when a response was written (success or a relayable error) and false when
// the replica is unreachable or draining (502/503), i.e. the caller may fail
// over. The trace id rides the X-Duet-Trace header so the replica's spans
// join the same trace, and each attempt is a "forward" span in the proxy's
// ring.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, addr string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, addr+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, r.Header.Get(api.RequestIDHeader))
	if id := r.Header.Get(obs.TraceHeader); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	tr := obs.FromContext(r.Context())
	timed := p.met.timed || tr != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	resp, err := p.client.Do(req)
	if timed {
		d := time.Since(t0)
		if p.met.timed {
			p.met.forwardSec.With(addr).Observe(d.Seconds())
		}
		status := "unreachable"
		if err == nil {
			status = strconv.Itoa(resp.StatusCode)
		}
		tr.AddSpan("forward", t0, d, "member", addr, "status", status)
	}
	if err != nil {
		p.met.errors.With(addr).Inc()
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		p.met.errors.With(addr).Inc()
		io.Copy(io.Discard, resp.Body)
		return false
	}
	p.met.forwarded.Inc()
	p.met.fanout.With(addr).Inc()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(ReplicaHeader, addr)
	w.WriteHeader(resp.StatusCode)
	buf := copyBufs.Get().(*[2 << 10]byte)
	io.CopyBuffer(w, resp.Body, buf[:])
	copyBufs.Put(buf)
	return true
}

// copyBufs hold the buffers forward relays answers through. An estimate's
// answer is a few hundred bytes, and neither end of the copy offers ReadFrom
// or WriteTo, so io.Copy would allocate and clear 32 KB for every one.
var copyBufs = sync.Pool{New: func() any { return new([2 << 10]byte) }}

// rolloutRequest drives a rolling version install across a model's owners.
// Source (optional) names the node serving the artifact; it defaults to the
// model's first healthy owner, which is where lifecycle retrains run.
type rolloutRequest struct {
	Version int    `json:"version"`
	Source  string `json:"source"`
}

type rolloutResult struct {
	Addr   string `json:"addr"`
	Status string `json:"status"` // "installed", "source", or "failed: ..."
}

// rollout installs one model version across its replica set, one node at a
// time — each peer pulls the artifact from the source and drain-swaps it,
// so at every instant all but one replica serve traffic and in-flight
// estimates complete on the generation they started on.
func (p *Proxy) rollout(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req rolloutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return
	}
	if req.Version <= 0 {
		api.WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`a positive "version" is required`), nil)
		return
	}
	owners := p.Owners(name)
	source := req.Source
	if source == "" {
		rotation := p.inRotation(owners)
		if len(rotation) == 0 {
			api.WriteError(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("no healthy owner to source model %q from", name), nil)
			return
		}
		source = rotation[0]
	}
	results := make([]rolloutResult, 0, len(owners))
	failed := 0
	for _, addr := range owners {
		if addr == source {
			results = append(results, rolloutResult{Addr: addr, Status: "source"})
			continue
		}
		if err := p.pullOn(r, addr, name, source, req.Version); err != nil {
			results = append(results, rolloutResult{Addr: addr, Status: "failed: " + err.Error()})
			failed++
			continue
		}
		results = append(results, rolloutResult{Addr: addr, Status: "installed"})
	}
	out := map[string]any{"model": name, "version": req.Version, "source": source, "results": results}
	if failed > 0 {
		out["failed"] = failed
	}
	api.WriteJSON(w, out)
}

// pullOn asks one peer to pull and install an artifact version.
func (p *Proxy) pullOn(r *http.Request, addr, name, source string, version int) error {
	body, _ := json.Marshal(map[string]any{"source": source, "version": version})
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		addr+"/v1/models/"+name+"/pull", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// listing is what the proxy reads of a member's list answer: /v1/models
// names the member's models, /v1/debug/traces?slow=1 carries its slow traces.
type listing struct {
	Models []struct {
		Name string `json:"name"`
	} `json:"models"`
	Traces []obs.TraceSnapshot `json:"traces"`
}

// models merges the fleet's model listings into a placement view: each model
// name with its owner preference list, so a client can see where everything
// lives without querying replicas one by one. "partial" is set when a
// member's listing is missing from the merge.
func (p *Proxy) models(w http.ResponseWriter, r *http.Request) {
	answers, partial := askMembers[listing](p, r, "/v1/models")
	names := map[string]bool{}
	for _, l := range answers {
		for _, m := range l.Models {
			names[m.Name] = true
		}
	}
	type placement struct {
		Name   string   `json:"name"`
		Owners []string `json:"owners"`
	}
	list := make([]placement, 0, len(names))
	for n := range names {
		list = append(list, placement{Name: n, Owners: p.Owners(n)})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	api.WriteJSON(w, map[string]any{"models": list, "partial": partial})
}

// healthz reports the proxy's own liveness plus every member's probe state.
// The proxy is "ok" while at least one member is in rotation, "degraded"
// otherwise — it still answers, but estimates will shed.
func (p *Proxy) healthz(w http.ResponseWriter, _ *http.Request) {
	snapshot := p.check.Snapshot()
	status := "degraded"
	for _, m := range snapshot {
		if m.Healthy {
			status = "ok"
			break
		}
	}
	api.WriteJSON(w, map[string]any{
		"status":   status,
		"role":     "proxy",
		"members":  snapshot,
		"uptime_s": int64(time.Since(p.start).Seconds()),
	})
}

// stats reports the proxy's routing counters and each member's own
// /v1/stats payload, keyed by address; "partial" is set when a member's
// payload is missing.
func (p *Proxy) stats(w http.ResponseWriter, r *http.Request) {
	members, partial := askMembers[json.RawMessage](p, r, "/v1/stats")
	api.WriteJSON(w, map[string]any{
		"proxy": map[string]any{
			"forwarded": p.met.forwarded.Value(),
			"failovers": p.met.failovers.Value(),
			"rejected":  p.met.rejected.Value(),
		},
		"members": members,
		"partial": partial,
	})
}

// cluster reports the ring configuration and membership.
func (p *Proxy) cluster(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, map[string]any{
		"members":     p.ring.Members(),
		"replication": p.cfg.Replication,
		"health":      p.check.Snapshot(),
	})
}

// askMembers GETs path from every member in rotation at once and decodes
// each 200 answer into a T, keyed by member address. The answer is partial
// when a member is out of rotation or unreachable, answers anything but 200
// or 404, or sends a body that does not decode. A 404 is a member with
// nothing to add.
func askMembers[T any](p *Proxy, r *http.Request, path string) (answers map[string]T, partial bool) {
	answers = map[string]T{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, addr := range p.cfg.Members {
		if !p.check.Healthy(addr) {
			partial = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v T
			found, err := p.getJSON(r, addr+path, &v)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				partial = true
			} else if found {
				answers[addr] = v
			}
		}()
	}
	wg.Wait()
	return answers, partial
}

// getJSON GETs one member URL and decodes a 200 answer into v. A 404 is no
// error but reports found false; any other status is an error.
func (p *Proxy) getJSON(r *http.Request, url string, v any) (found bool, err error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, json.NewDecoder(resp.Body).Decode(v)
	case http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("%s: %s", url, resp.Status)
}
