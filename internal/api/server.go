package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"duet/internal/artifact"
	"duet/internal/lifecycle"
	"duet/internal/obs"
	"duet/internal/registry"
)

// Server exposes a model registry — and, when enabled, the lifecycle
// subsystem — over the versioned /v1 HTTP API. Create with New and mount
// Handler on an http.Server. The same handler serves a standalone process
// and each replica behind the cluster proxy.
type Server struct {
	reg   *registry.Registry
	lc    *lifecycle.Supervisor // nil when lifecycle is disabled
	dir   artifact.Dir          // versioned-artifact directory ("" disables version endpoints)
	suite *obs.Suite            // nil disables metrics/tracing/pprof routes
	start time.Time
}

// New builds a server over reg. lc may be nil (lifecycle endpoints then
// return 404); dir is where versioned model artifacts live — normally the
// lifecycle directory — and "" disables the version endpoints. suite wires
// the observability routes (/v1/metrics, /v1/debug/traces, /debug/pprof/*)
// and the tracing and HTTP-metrics middleware; nil serves the API without
// them.
func New(reg *registry.Registry, lc *lifecycle.Supervisor, dir string, suite *obs.Suite) *Server {
	return &Server{reg: reg, lc: lc, dir: artifact.Dir(dir), suite: suite, start: time.Now()}
}

// Handler routes the full API, /v1/* only, behind the request-ID middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/estimate", RequireJSON(s.estimate))
	mux.HandleFunc("GET /v1/models", s.models)
	mux.HandleFunc("POST /v1/models/{name}/reload", s.reload)
	mux.HandleFunc("GET /v1/models/{name}/versions", s.versions)
	mux.HandleFunc("GET /v1/models/{name}/versions/{version}", s.artifact)
	mux.HandleFunc("POST /v1/models/{name}/pull", RequireJSON(s.pull))
	mux.HandleFunc("POST /v1/ingest", RequireJSON(s.ingest))
	mux.HandleFunc("POST /v1/feedback", RequireJSON(s.feedback))
	mux.HandleFunc("GET /v1/lifecycle", s.lifecycle)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/stats", s.stats)

	var handler http.Handler = mux
	if s.suite != nil {
		if s.suite.Metrics != nil {
			mux.Handle("GET /v1/metrics", s.suite.Metrics.Handler())
		}
		if s.suite.Tracer != nil {
			mux.Handle("GET /v1/debug/traces", s.suite.Tracer.Handler())
			mux.Handle("GET /v1/debug/traces/{id}", s.suite.Tracer.HandlerByID())
		}
		if s.suite.Pprof {
			MountPprof(mux)
		}
		handler = WithTracing(s.suite.Tracer, "replica", WithHTTPMetrics(s.suite.Metrics, handler))
	}
	return WithRequestID(handler)
}

// MountPprof registers net/http/pprof's handlers under /debug/pprof/ on mux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// estimateRequest carries either one query or a batch, as WHERE-style
// expressions. Model selects the target estimator by name; it may be left
// empty when only one model is registered, or when the expression contains a
// join clause that resolves to a registered join view.
type estimateRequest struct {
	Model   string   `json:"model,omitempty"`
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

type estimateResponse struct {
	Model     string    `json:"model,omitempty"`
	Models    []string  `json:"models,omitempty"`
	Card      *float64  `json:"card,omitempty"`
	Cards     []float64 `json:"cards,omitempty"`
	ElapsedNS int64     `json:"elapsed_ns"`
}

func (s *Server) estimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return
	}
	t0 := time.Now()
	switch {
	case req.Query != "" && req.Queries == nil:
		res, err := s.reg.Query(r.Context(), registry.QueryRequest{Model: req.Model, Expr: req.Query})
		if err != nil {
			WriteError(w, r, statusFor(err), err, nil)
			return
		}
		obs.FromContext(r.Context()).SetAttr("model", res.Models[0])
		SetModelLabel(r.Context(), res.Models[0])
		WriteJSON(w, estimateResponse{Model: res.Models[0], Card: &res.Cards[0], ElapsedNS: time.Since(t0).Nanoseconds()})
	case len(req.Queries) > 0 && req.Query == "":
		res, err := s.reg.Query(r.Context(), registry.QueryRequest{Model: req.Model, Exprs: req.Queries})
		if err != nil {
			WriteError(w, r, statusFor(err), err, nil)
			return
		}
		SetModelLabel(r.Context(), batchModelLabel(res.Models))
		WriteJSON(w, estimateResponse{Models: res.Models, Cards: res.Cards, ElapsedNS: time.Since(t0).Nanoseconds()})
	default:
		WriteError(w, r, http.StatusBadRequest,
			fmt.Errorf(`provide exactly one of "query" or "queries"`), nil)
	}
}

// batchModelLabel collapses a batch's routed models to one metric label: the
// name when every query resolved to the same model, "multi" otherwise (the
// label set must stay bounded, so mixed batches are not enumerated).
func batchModelLabel(models []string) string {
	if len(models) == 0 {
		return ""
	}
	for _, m := range models[1:] {
		if m != models[0] {
			return "multi"
		}
	}
	return models[0]
}

// ingestRequest appends rows to a managed model's backing table. Row values
// may be JSON strings or numbers; they are parsed by each column's kind.
type ingestRequest struct {
	Model string  `json:"model"`
	Rows  [][]any `json:"rows"`
}

func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		WriteError(w, r, http.StatusNotFound, errLifecycleDisabled, nil)
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return
	}
	if req.Model == "" || len(req.Rows) == 0 {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`"model" and a non-empty "rows" are required`), nil)
		return
	}
	rows := make([][]string, len(req.Rows))
	for i, row := range req.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case string:
				rows[i][j] = x
			case json.Number:
				rows[i][j] = x.String()
			default:
				WriteError(w, r, http.StatusBadRequest,
					fmt.Errorf("rows[%d][%d]: values must be strings or numbers, got %T", i, j, v), nil)
				return
			}
		}
	}
	res, err := s.lc.Ingest(req.Model, rows)
	if err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	WriteJSON(w, res)
}

// feedbackRequest records observed true cardinalities: a single query+card
// pair, a batch of items, or both.
type feedbackRequest struct {
	Model string         `json:"model"`
	Query string         `json:"query,omitempty"`
	Card  *int64         `json:"card,omitempty"`
	Items []feedbackItem `json:"items,omitempty"`
}

type feedbackItem struct {
	Query string `json:"query"`
	Card  int64  `json:"card"`
}

func (s *Server) feedback(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		WriteError(w, r, http.StatusNotFound, errLifecycleDisabled, nil)
		return
	}
	var req feedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return
	}
	items := req.Items
	if req.Query != "" {
		if req.Card == nil {
			WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`"query" needs a "card"`), nil)
			return
		}
		items = append(items, feedbackItem{Query: req.Query, Card: *req.Card})
	}
	if req.Model == "" || len(items) == 0 {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`"model" and at least one query+card are required`), nil)
		return
	}
	results := make([]lifecycle.FeedbackResult, len(items))
	for i, it := range items {
		res, err := s.lc.Feedback(req.Model, it.Query, it.Card)
		if err != nil {
			// Items before i are already committed to the rolling window; the
			// envelope details say how many, so a client retry can resume at
			// the failed item instead of double-counting the recorded ones.
			WriteError(w, r, statusFor(err), fmt.Errorf("items[%d]: %w", i, err),
				map[string]any{"recorded": i})
			return
		}
		results[i] = res
	}
	if req.Query != "" && len(req.Items) == 0 {
		WriteJSON(w, results[0])
		return
	}
	WriteJSON(w, map[string]any{"results": results})
}

// lifecycle snapshots the supervisor's drift state plus each model's serving
// identity — version, swap and reload counts — taken under the registry's
// generation pin so the pair is coherent.
func (s *Server) lifecycle(w http.ResponseWriter, r *http.Request) {
	if s.lc == nil {
		WriteError(w, r, http.StatusNotFound, errLifecycleDisabled, nil)
		return
	}
	st := s.reg.Stats()
	out := lifecycleStats{Models: s.lc.Stats(), Serving: make(map[string]servingIdentity, len(st.PerModel))}
	for name, ms := range st.PerModel {
		out.Serving[name] = servingIdentity{Version: ms.Version, Swaps: ms.Swaps, Reloads: ms.Reloads}
	}
	WriteJSON(w, out)
}

func (s *Server) models(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, map[string]any{"models": s.reg.Info()})
}

func (s *Server) reload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Reload(name); err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	s.suite.Logger().Info("model reloaded on admin request",
		"model", name, "request_id", r.Header.Get(RequestIDHeader))
	WriteJSON(w, map[string]string{"status": "reloaded", "model": name})
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, map[string]any{
		"status":   "ok",
		"models":   s.reg.Names(),
		"uptime_s": int64(time.Since(s.start).Seconds()),
	})
}

// statsResponse is the /v1/stats payload: the registry counters (per-model
// engine stats now carry version, swap/reload counts, and admission shed
// totals) plus process uptime.
type statsResponse struct {
	registry.Stats
	UptimeS int64 `json:"uptime_s"`
}

func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, statsResponse{Stats: s.reg.Stats(), UptimeS: int64(time.Since(s.start).Seconds())})
}
