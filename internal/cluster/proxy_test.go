package cluster

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/api"
	"duet/internal/obs"
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

// TestProxyRolloutRequiresJSON: the rollout route the proxy answers itself
// refuses a body declared as anything but JSON, as every replica POST does,
// before it asks any member.
func TestProxyRolloutRequiresJSON(t *testing.T) {
	var hits atomic.Int64
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			hits.Add(1)
		}
	}))
	defer member.Close()
	p, err := NewProxy(Config{Members: []string{member.URL}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, c := range []struct {
		contentType string
		status      int
	}{
		{"application/x-www-form-urlencoded", http.StatusUnsupportedMediaType},
		{"text/plain", http.StatusUnsupportedMediaType},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/models/m/rollout", strings.NewReader(`{"version":2}`))
		req.Header.Set("Content-Type", c.contentType)
		p.Handler().ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Errorf("%s: rollout answered %d %s, want %d", c.contentType, rec.Code, rec.Body.String(), c.status)
		}
		if n := hits.Load(); n != 0 {
			t.Errorf("%s: the refused rollout reached the member %d times", c.contentType, n)
		}
	}
}

// fleetMember serves the fleet views as one kind of member does: "healthy"
// (and "down", the same member once the proxy marks it out of rotation)
// answers every view with itself as the only entry, "404" answers 404 on
// every route, as a replica without the route mounted does, and "500" fails
// every request. hits counts the requests it saw.
func fleetMember(kind string, hits *atomic.Int64) http.Handler {
	mux := http.NewServeMux()
	switch kind {
	case "404":
		mux.Handle("/", http.NotFoundHandler())
	case "500":
		mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "member failed", http.StatusInternalServerError)
		})
	default:
		snap := obs.TraceSnapshot{TraceID: "t1", Start: time.Now(), DurationUS: 10, Slow: true,
			Spans: []obs.SpanSnapshot{{Name: "plan_exec", DurationUS: 10}}}
		mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
			api.WriteJSON(w, map[string]string{"member": kind})
		})
		mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
			api.WriteJSON(w, map[string]any{"models": []map[string]string{{"name": kind}}})
		})
		mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			api.WriteJSON(w, map[string]any{"traces": []obs.TraceSnapshot{snap}})
		})
		mux.HandleFunc("GET /v1/debug/traces/{id}", func(w http.ResponseWriter, _ *http.Request) {
			api.WriteJSON(w, snap)
		})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// TestProxyFleetViews pins, for each fleet view, which members appear in it
// and whether it is partial, over fleets that pair a healthy member with one
// marked down, one answering 404 and one answering 500, and over all four.
// A member out of rotation is not asked and makes the view partial, so does a
// 500; a 404 is a member with nothing to add, on the slow list as on the
// by-id view.
func TestProxyFleetViews(t *testing.T) {
	type view struct {
		Members map[string]json.RawMessage   `json:"members"`
		Models  []struct{ Name string }      `json:"models"`
		Traces  []struct{ Sources []string } `json:"traces"`
		Sources []string                     `json:"sources"`
		Partial *bool                        `json:"partial"`
	}
	routes := []struct {
		route string
		// seen lists the members a view shows, by kind.
		seen func(v view, kindOf map[string]string) []string
	}{
		{"/v1/stats", func(v view, kindOf map[string]string) (out []string) {
			for addr := range v.Members {
				out = append(out, kindOf[addr])
			}
			return out
		}},
		{"/v1/models", func(v view, _ map[string]string) (out []string) {
			for _, m := range v.Models {
				out = append(out, m.Name)
			}
			return out
		}},
		{"/v1/debug/traces?slow=1", func(v view, kindOf map[string]string) (out []string) {
			for _, tr := range v.Traces {
				for _, s := range tr.Sources {
					out = append(out, kindOf[s])
				}
			}
			return out
		}},
		{"/v1/debug/traces/t1", func(v view, kindOf map[string]string) (out []string) {
			for _, s := range v.Sources {
				out = append(out, kindOf[s])
			}
			return out
		}},
	}
	for _, fleet := range []struct {
		kinds       []string
		wantPartial bool
	}{
		{[]string{"healthy"}, false},
		{[]string{"healthy", "down"}, true},
		{[]string{"healthy", "404"}, false},
		{[]string{"healthy", "500"}, true},
		{[]string{"healthy", "down", "404", "500"}, true},
	} {
		name := strings.Join(fleet.kinds, "+")
		t.Run(name, func(t *testing.T) {
			kindOf := map[string]string{}
			hits := map[string]*atomic.Int64{}
			var members []string
			for _, kind := range fleet.kinds {
				hits[kind] = new(atomic.Int64)
				srv := httptest.NewServer(fleetMember(kind, hits[kind]))
				t.Cleanup(srv.Close)
				kindOf[srv.URL] = kind
				members = append(members, srv.URL)
			}
			p, err := NewProxy(Config{Members: members,
				Health: HealthConfig{Interval: time.Hour}, // no probe flips mid-test
				Tracer: obs.NewTracer(obs.TracerConfig{RingSize: 8}),
				Log:    slog.New(slog.DiscardHandler)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			for addr, kind := range kindOf {
				for kind == "down" && p.check.Healthy(addr) {
					p.check.record(addr, false)
				}
			}
			h := p.Handler()
			for _, rt := range routes {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, rt.route, nil)
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", rt.route, rec.Code, rec.Body)
				}
				var v view
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("%s: %v in %s", rt.route, err, rec.Body)
				}
				if got := rt.seen(v, kindOf); len(got) != 1 || got[0] != "healthy" {
					t.Errorf("%s shows members %v, want the healthy one alone", rt.route, got)
				}
				if v.Partial == nil {
					t.Errorf("%s reports no partial flag", rt.route)
				} else if *v.Partial != fleet.wantPartial {
					t.Errorf("%s: partial %v, want %v", rt.route, *v.Partial, fleet.wantPartial)
				}
			}
			if h := hits["down"]; h != nil && h.Load() != 0 {
				t.Errorf("the member out of rotation was asked %d times", h.Load())
			}
		})
	}
}

// TestProxyForwardAllocs: relaying a replica's estimate answer to the caller
// copies it through a small pooled buffer, so a forwarded estimate allocates
// well under the 32 KB that io.Copy allocates and clears for every call
// whose writer and reader offer neither ReadFrom nor WriteTo. The figure
// covers the whole round trip in this process: the proxy, its client, and
// the replica's server: about 16 KB, where the 32 KB copy buffer made it 49.
func TestProxyForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cards":[42.5]}`))
	}))
	defer replica.Close()
	p, err := NewProxy(Config{Members: []string{replica.URL}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	forward := func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{"model":"m","query":"a<=1"}`))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.String() != `{"cards":[42.5]}` {
			t.Fatalf("forwarded estimate answered %d %q", rec.Code, rec.Body.String())
		}
	}
	for range 20 {
		forward() // warm the connection and the pools
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		forward()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per forwarded estimate", perCall)
	if perCall > 24<<10 {
		t.Fatalf("a forwarded estimate allocates %d bytes, want well under 32 KB", perCall)
	}
}

var raceEnabled bool
