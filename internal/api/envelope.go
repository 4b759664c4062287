// Package api is the versioned HTTP surface of a duetserve process: the
// /v1/* routes, one uniform JSON envelope for errors, request-ID tagging,
// and the model-version artifact endpoints the cluster rollout pulls from.
// cmd/duetserve mounts this handler both for standalone serving and for each
// replica behind the cluster proxy. Nothing answers outside /v1 (bar
// /debug/pprof): a bare path gets the mux's 404.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"duet/internal/lifecycle"
	"duet/internal/obs"
	"duet/internal/registry"
	"duet/internal/serve"
)

// RequestIDHeader tags every response (and forwarded proxy request) with the
// request's correlation ID. Clients may supply their own; otherwise the
// server assigns one.
const RequestIDHeader = "X-Request-Id"

// Error is the uniform error envelope every /v1 endpoint returns:
//
//	{"error": {"code": "not_found", "message": "...", "details": {...}}}
//
// Code is a stable machine-readable slug; Message is human-prose; Details
// carries endpoint-specific structured context (e.g. how many feedback items
// committed before the failure, or the retry horizon of a shed request).
type Error struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorBody struct {
	Error     Error  `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
}

// Stable error codes.
const (
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeUnavailable = "unavailable"
	CodeOverloaded  = "overloaded"
	CodeUnsupported = "unsupported_media_type"
	CodeUpstream    = "upstream_error"
	CodeInternal    = "internal"
)

// codeFor maps an HTTP status to its envelope code.
func codeFor(status int) string {
	switch status {
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusUnsupportedMediaType:
		return CodeUnsupported
	case http.StatusBadGateway:
		return CodeUpstream
	case http.StatusInternalServerError:
		return CodeInternal
	default:
		return CodeBadRequest
	}
}

// statusFor maps service errors to HTTP statuses: closed engines are
// unavailable (the process is draining), admission sheds are 429, a
// forward pass that panicked is the server's fault (500, which the cluster
// proxy relays without replaying the query on another replica), unknown
// names are 404, and anything else — parse or routing failures — is the
// client's request.
func statusFor(err error) int {
	switch {
	case errors.Is(err, registry.ErrClosed) || errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrBackendPanic):
		return http.StatusInternalServerError
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case strings.Contains(err.Error(), "unknown model"),
		strings.Contains(err.Error(), "is not managed"),
		errors.Is(err, errLifecycleDisabled):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

var errLifecycleDisabled = errors.New(`lifecycle is not enabled; add a "lifecycle" block to the manifest`)

// writeError renders err through the envelope, deriving status, code, and —
// for admission sheds — the Retry-After header and retry detail.
func WriteError(w http.ResponseWriter, r *http.Request, status int, err error, details map[string]any) {
	var ov *serve.OverloadError
	if errors.As(err, &ov) {
		if details == nil {
			details = map[string]any{}
		}
		details["reason"] = ov.Reason
		details["retry_after_ms"] = ov.RetryAfter.Milliseconds()
		secs := int(math.Ceil(ov.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{
		Error:     Error{Code: codeFor(status), Message: err.Error(), Details: details},
		RequestID: r.Header.Get(RequestIDHeader),
		TraceID:   obs.FromContext(r.Context()).ID(),
	})
}

func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("write response failed", "error", err)
	}
}

// reqCounter disambiguates request IDs generated within one nanosecond tick.
var reqCounter atomic.Uint64

// withRequestID assigns (or propagates) the correlation ID and reflects it
// on the response, so a client can quote the ID when reporting a failure and
// the proxy can stitch its log line to the replica's.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = fmt.Sprintf("%x-%x", time.Now().UnixNano(), reqCounter.Add(1))
			r.Header.Set(RequestIDHeader, id)
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// RequireJSON rejects POST bodies whose declared Content-Type is not JSON.
// An absent Content-Type is tolerated; a present-but-wrong one is a client
// bug worth failing loudly. curl -d declares a form
// (application/x-www-form-urlencoded), so curl callers pass
// -H 'Content-Type: application/json'.
func RequireJSON(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "" {
			mt, _, err := mime.ParseMediaType(ct)
			if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
				WriteError(w, r, http.StatusUnsupportedMediaType,
					fmt.Errorf("content type %q is not supported; send application/json", ct), nil)
				return
			}
		}
		next(w, r)
	}
}

// lifecycleStats is the /v1/lifecycle payload: the supervisor's per-model
// drift state alongside the registry's serving identity (artifact version,
// swap and reload counts), both snapshotted in one pass.
type lifecycleStats struct {
	Models  []lifecycle.ModelStats     `json:"models"`
	Serving map[string]servingIdentity `json:"serving"`
}

type servingIdentity struct {
	Version int    `json:"version"`
	Swaps   uint64 `json:"swaps"`
	Reloads uint64 `json:"reloads"`
}
