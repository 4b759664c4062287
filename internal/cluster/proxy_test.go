package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"duet/internal/api"
)

// TestProxyFailsOverOnlyWhenUnavailable: the proxy replays an estimate on
// the next owner only for 502 and 503. A 500 (a forward pass that panicked
// on a poisoned query) is relayed from the first owner as-is, so the query
// is not run again on the other replica.
func TestProxyFailsOverOnlyWhenUnavailable(t *testing.T) {
	for _, c := range []struct {
		status   int
		code     string
		wantHits int64
	}{
		{http.StatusInternalServerError, api.CodeInternal, 1},
		{http.StatusServiceUnavailable, api.CodeUnavailable, 2},
	} {
		var hits atomic.Int64
		replica := func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			hits.Add(1)
			api.WriteError(w, r, c.status, errors.New("replica failed"), nil)
		}
		a, b := httptest.NewServer(http.HandlerFunc(replica)), httptest.NewServer(http.HandlerFunc(replica))
		p, err := NewProxy(Config{Members: []string{a.URL, b.URL}, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{"model":"m","query":"a<=1"}`))
		req.Header.Set("Content-Type", "application/json")
		p.Handler().ServeHTTP(rec, req)
		p.Close()
		a.Close()
		b.Close()

		var body struct{ Error api.Error }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("status %d: response %q: %v", c.status, rec.Body.String(), err)
		}
		if got := hits.Load(); got != c.wantHits {
			t.Errorf("replicas answering %d: the estimate reached %d replicas, want %d", c.status, got, c.wantHits)
		}
		if rec.Code != c.status || body.Error.Code != c.code {
			t.Errorf("replicas answering %d: the proxy answered %d %q, want %d %q", c.status, rec.Code, body.Error.Code, c.status, c.code)
		}
	}
}
