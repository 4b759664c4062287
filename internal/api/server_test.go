package api

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/serve"
)

// testTable builds a small deterministic table.
func testTable(name string, seed int64) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: name, Rows: 300, Seed: seed,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 30, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 12, Skew: 1.5, Parent: 0, Noise: 0.2},
		},
	})
}

func smallModel(t *relation.Table, seed int64) *core.Model {
	cfg := core.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	cfg.Seed = seed
	return core.NewModel(t, cfg)
}

// newTestServer registers one "alpha" model (optionally with a serve
// override) and returns the API handler plus its registry.
func newTestServer(t *testing.T, serveCfg *serve.Config, dir string) (http.Handler, *registry.Registry) {
	t.Helper()
	tbl := testTable("alpha", 1)
	reg := registry.New(registry.Config{Dir: t.TempDir()})
	t.Cleanup(func() { reg.Close() })
	if err := reg.Add("alpha", tbl, smallModel(tbl, 7), registry.AddOpts{Serve: serveCfg}); err != nil {
		t.Fatal(err)
	}
	return New(reg, nil, dir, nil).Handler(), reg
}

func do(t *testing.T, h http.Handler, method, path string, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeEnvelope parses {"error": {...}} responses.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) Error {
	t.Helper()
	var body struct {
		Error     Error  `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad envelope %q: %v", rec.Body.String(), err)
	}
	if body.RequestID == "" {
		t.Fatalf("error envelope missing request_id: %s", rec.Body.String())
	}
	return body.Error
}

// TestErrorEnvelope is the table-driven contract of the /v1 error surface:
// status code, stable machine code, and the structured envelope shape.
func TestErrorEnvelope(t *testing.T) {
	h, _ := newTestServer(t, nil, "")
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"unknown model", "POST", "/v1/estimate", `{"model":"nope","query":"a<=1"}`, http.StatusNotFound, CodeNotFound},
		{"malformed json", "POST", "/v1/estimate", `{"model":`, http.StatusBadRequest, CodeBadRequest},
		{"no query", "POST", "/v1/estimate", `{"model":"alpha"}`, http.StatusBadRequest, CodeBadRequest},
		{"bad expression", "POST", "/v1/estimate", `{"model":"alpha","query":"zzz<=1"}`, http.StatusBadRequest, CodeBadRequest},
		{"lifecycle disabled", "POST", "/v1/ingest", `{"model":"alpha","rows":[[1,2]]}`, http.StatusNotFound, CodeNotFound},
		{"reload unknown", "POST", "/v1/models/nope/reload", ``, http.StatusNotFound, CodeNotFound},
		{"versions without dir", "GET", "/v1/models/alpha/versions", ``, http.StatusNotFound, CodeNotFound},
	} {
		rec := do(t, h, tc.method, tc.path, tc.body, nil)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body.String(), tc.status)
		}
		if env := decodeEnvelope(t, rec); env.Code != tc.code || env.Message == "" {
			t.Fatalf("%s: envelope %+v, want code %q", tc.name, env, tc.code)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	h, _ := newTestServer(t, nil, "")
	// Server-assigned when absent.
	rec := do(t, h, "GET", "/v1/healthz", "", nil)
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Fatal("no request ID assigned")
	}
	// Client-supplied IDs echo back.
	rec = do(t, h, "GET", "/v1/healthz", "", map[string]string{RequestIDHeader: "trace-42"})
	if got := rec.Header().Get(RequestIDHeader); got != "trace-42" {
		t.Fatalf("request ID not echoed: %q", got)
	}
}

func TestContentTypeValidation(t *testing.T) {
	h, _ := newTestServer(t, nil, "")
	body := `{"model":"alpha","query":"a<=1"}`
	// A wrong declared type is rejected with the envelope, which names the
	// type to send. curl -d declares application/x-www-form-urlencoded.
	for _, ct := range []string{"text/plain", "application/x-www-form-urlencoded"} {
		rec := do(t, h, "POST", "/v1/estimate", body, map[string]string{"Content-Type": ct})
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Fatalf("%s accepted: %d", ct, rec.Code)
		}
		if env := decodeEnvelope(t, rec); env.Code != CodeUnsupported || !strings.Contains(env.Message, "application/json") {
			t.Fatalf("%s envelope: %+v", ct, env)
		}
	}
	// Declared JSON (with charset) and absent Content-Type both pass.
	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8"} {
		hdr := map[string]string{}
		if ct != "" {
			hdr["Content-Type"] = ct
		}
		if rec := do(t, h, "POST", "/v1/estimate", body, hdr); rec.Code != http.StatusOK {
			t.Fatalf("content type %q rejected: %d %s", ct, rec.Code, rec.Body.String())
		}
	}
}

// TestAdmissionShedsOverHTTP: a rate-limited model answers 429 with the
// overloaded envelope, a Retry-After header, and shed counters in stats.
func TestAdmissionShedsOverHTTP(t *testing.T) {
	h, _ := newTestServer(t, &serve.Config{
		CacheSize: -1,
		Admission: serve.AdmissionConfig{QPS: 0.5, Burst: 2},
	}, "")

	shed := 0
	for i := 0; i < 6; i++ {
		body := `{"model":"alpha","query":"a<=` + string(rune('1'+i)) + `"}`
		rec := do(t, h, "POST", "/v1/estimate", body, nil)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
			if rec.Header().Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After: %s", rec.Body.String())
			}
			env := decodeEnvelope(t, rec)
			if env.Code != CodeOverloaded {
				t.Fatalf("shed envelope: %+v", env)
			}
			if env.Details["reason"] != "rate" || env.Details["retry_after_ms"] == nil {
				t.Fatalf("shed details: %+v", env.Details)
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if shed == 0 {
		t.Fatal("burst of 2 never shed over 6 requests")
	}

	// The shed total surfaces in /v1/stats under the model's admission stats.
	rec := do(t, h, "GET", "/v1/stats", "", nil)
	var stats struct {
		PerModel map[string]struct {
			Shed      uint64  `json:"shed"`
			RateLimit float64 `json:"rate_limit"`
		} `json:"per_model"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.PerModel["alpha"]; got.Shed != uint64(shed) || got.RateLimit != 0.5 {
		t.Fatalf("stats shed %+v, want shed=%d rate=0.5", got, shed)
	}
}

// TestVersionEndpointsAndPull exercises the rolling install's node-level
// machinery: a source node serves a versioned artifact, a peer pulls it,
// drain-swaps it in, and reports the installed version.
func TestVersionEndpointsAndPull(t *testing.T) {
	tbl := testTable("alpha", 1)

	// Source node: artifact dir holds alpha.v3.duet with distinct weights.
	srcDir := t.TempDir()
	next := smallModel(tbl, 99)
	f, err := os.Create(filepath.Join(srcDir, "alpha.v3.duet"))
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srcReg := registry.New(registry.Config{Dir: srcDir})
	defer srcReg.Close()
	if err := srcReg.Add("alpha", tbl, smallModel(tbl, 7), registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	source := httptest.NewServer(New(srcReg, nil, srcDir, nil).Handler())
	defer source.Close()

	// The version listing sees the artifact.
	resp, err := http.Get(source.URL + "/v1/models/alpha/versions")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Serving  int `json:"serving"`
		Versions []struct {
			Version int `json:"version"`
		} `json:"versions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Versions) != 1 || listing.Versions[0].Version != 3 || listing.Serving != 0 {
		t.Fatalf("version listing: %+v", listing)
	}

	// Peer node with the same table encoding pulls and installs v3.
	peerDir := t.TempDir()
	peerReg := registry.New(registry.Config{Dir: peerDir})
	defer peerReg.Close()
	if err := peerReg.Add("alpha", tbl, smallModel(tbl, 7), registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	peer := New(peerReg, nil, peerDir, nil).Handler()
	rec := do(t, peer, "POST", "/v1/models/alpha/pull",
		`{"source":"`+source.URL+`","version":3}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("pull: %d %s", rec.Code, rec.Body.String())
	}
	if st := peerReg.Stats().PerModel["alpha"]; st.Version != 3 || st.Swaps != 1 {
		t.Fatalf("peer after pull: %+v", st)
	}
	// The artifact landed locally, so this peer can source later pulls.
	if _, err := os.Stat(filepath.Join(peerDir, "alpha.v3.duet")); err != nil {
		t.Fatal(err)
	}

	// Pulling a version the source lacks fails with an upstream error.
	rec = do(t, peer, "POST", "/v1/models/alpha/pull",
		`{"source":"`+source.URL+`","version":9}`, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("missing version pull: %d %s", rec.Code, rec.Body.String())
	}
	if env := decodeEnvelope(t, rec); env.Code != CodeUpstream {
		t.Fatalf("missing version envelope: %+v", env)
	}

	// A version the source serves as garbage fails to load: the pull is a
	// 400, the peer keeps serving v3, and it retains no copy of v5 that its
	// listing could offer to a rollout.
	if err := os.WriteFile(filepath.Join(srcDir, "alpha.v5.duet"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = do(t, peer, "POST", "/v1/models/alpha/pull",
		`{"source":"`+source.URL+`","version":5}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage pull: %d %s", rec.Code, rec.Body.String())
	}
	if st := peerReg.Stats().PerModel["alpha"]; st.Version != 3 || st.Swaps != 1 {
		t.Fatalf("peer after garbage pull: %+v", st)
	}
	rec = do(t, peer, "GET", "/v1/models/alpha/versions", "", nil)
	listing.Versions = nil
	if err := json.NewDecoder(rec.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Versions) != 1 || listing.Versions[0].Version != 3 || listing.Serving != 3 {
		t.Fatalf("peer listing after garbage pull: %+v", listing)
	}

	// Re-pulling the version the peer serves, from a source that now serves
	// garbage under it, is a 400 too, and the peer's own copy survives: on
	// disk, loadable, and in the listing.
	if err := os.WriteFile(filepath.Join(srcDir, "alpha.v3.duet"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = do(t, peer, "POST", "/v1/models/alpha/pull",
		`{"source":"`+source.URL+`","version":3}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage re-pull of the served version: %d %s", rec.Code, rec.Body.String())
	}
	if _, _, err := artifact.Load(filepath.Join(peerDir, "alpha.v3.duet"), tbl); err != nil {
		t.Fatalf("the peer's served copy did not survive the garbage re-pull: %v", err)
	}
	rec = do(t, peer, "GET", "/v1/models/alpha/versions", "", nil)
	listing.Versions = nil
	if err := json.NewDecoder(rec.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Versions) != 1 || listing.Versions[0].Version != 3 || listing.Serving != 3 {
		t.Fatalf("peer listing after the garbage re-pull: %+v", listing)
	}
	if entries, _ := os.ReadDir(peerDir); len(entries) != 1 {
		t.Fatalf("the failed pulls left files behind: %v", entries)
	}
}

// TestJoinWireForm pins the join wire form /v1/models lists: a legacy
// two-table view's "join" and a graph view's "graph" carry exactly these keys,
// and an edge marshals to the same four names the manifests declare joins by.
func TestJoinWireForm(t *testing.T) {
	l, r := testTable("l", 1), testTable("r", 2)
	edge := relation.JoinEdge{LeftTable: "l", LeftCol: "k", RightTable: "r", RightCol: "k"}
	b, err := json.Marshal(edge)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"left":"l","left_col":"k","right":"r","right_col":"k"}`; string(b) != want {
		t.Fatalf("edge marshals to %s, want %s", b, want)
	}

	reg := registry.New(registry.Config{Dir: t.TempDir()})
	t.Cleanup(func() { reg.Close() })
	for _, tbl := range []*relation.Table{l, r} {
		if err := reg.Add(tbl.Name, tbl, smallModel(tbl, 1), registry.AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	// The legacy view joins on a; the graph view's one edge is edge.
	inner, err := relation.EquiJoin("lr", l, "a", r, "a")
	if err != nil {
		t.Fatal(err)
	}
	legacy := relation.JoinEdge{LeftTable: "l", LeftCol: "a", RightTable: "r", RightCol: "a"}
	if err := reg.Add("lr", inner, smallModel(inner, 1), registry.AddOpts{Join: &legacy}); err != nil {
		t.Fatal(err)
	}
	spec := &registry.JoinGraphSpec{Tables: []string{"l", "r"}, Edges: []relation.JoinEdge{edge}, Sample: 40}
	view, _, err := spec.Build("lrg", reg.Table, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("lrg", view, smallModel(view, 1), registry.AddOpts{Graph: spec}); err != nil {
		t.Fatal(err)
	}

	rec := do(t, New(reg, nil, "", nil).Handler(), "GET", "/v1/models", "", nil)
	var body struct {
		Models []map[string]json.RawMessage `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/v1/models: %v: %s", err, rec.Body.String())
	}
	field := func(model, key string) []byte {
		for _, m := range body.Models {
			if string(m["name"]) == `"`+model+`"` {
				return m[key]
			}
		}
		t.Fatalf("/v1/models lists no %q: %s", model, rec.Body.String())
		return nil
	}
	var join map[string]string
	wantJoin := map[string]string{"left": "l", "left_col": "a", "right": "r", "right_col": "a"}
	if err := json.Unmarshal(field("lr", "join"), &join); err != nil || !maps.Equal(join, wantJoin) {
		t.Fatalf("legacy view's join = %v (%v), want %v", join, err, wantJoin)
	}
	var graph map[string]json.RawMessage
	if err := json.Unmarshal(field("lrg", "graph"), &graph); err != nil {
		t.Fatal(err)
	}
	if keys := slices.Sorted(maps.Keys(graph)); !slices.Equal(keys, []string{"edges", "sample", "tables"}) {
		t.Fatalf("graph view's graph keys = %v, want edges, sample, tables", keys)
	}
	var edges []map[string]string
	wantEdge := map[string]string{"left": "l", "left_col": "k", "right": "r", "right_col": "k"}
	if err := json.Unmarshal(graph["edges"], &edges); err != nil || len(edges) != 1 || !maps.Equal(edges[0], wantEdge) {
		t.Fatalf("graph view's edges = %v (%v), want [%v]", edges, err, wantEdge)
	}
	if string(graph["tables"]) != `["l","r"]` || string(graph["sample"]) != "40" {
		t.Fatalf("graph view's tables/sample = %s/%s", graph["tables"], graph["sample"])
	}
}
