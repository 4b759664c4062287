package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"duet"
	"duet/internal/relation"
)

// fleet is an in-process 3-replica cluster: each replica runs the full /v1
// API over its own registry (same table encoding everywhere, as a real fleet
// assembled from one manifest would have), fronted by a proxy.
type fleet struct {
	urls    []string
	servers map[string]*httptest.Server
	dirs    map[string]string
	proxy   *duet.ClusterProxy
	handler http.Handler
	flips   chan string // member addresses as they flip health state
	tbl     *duet.Table
	cfg     duet.Config
}

func startFleet(t *testing.T, n int) *fleet {
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

	f := &fleet{
		servers: map[string]*httptest.Server{},
		dirs:    map[string]string{},
		flips:   make(chan string, 64),
		tbl:     tbl,
		cfg:     cfg,
	}
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
		t.Cleanup(func() { reg.Close() })
		if err := reg.Add("alpha", tbl, duet.New(tbl, cfg), duet.AddOpts{}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(duet.NewAPIServer(reg, nil, dir, nil).Handler())
		t.Cleanup(srv.Close)
		f.urls = append(f.urls, srv.URL)
		f.servers[srv.URL] = srv
		f.dirs[srv.URL] = dir
	}

	proxy, err := duet.NewClusterProxy(duet.ClusterConfig{
		Members:     f.urls,
		Replication: 2,
		// A live member must never fail a probe, even while the rollout
		// subtest's estimate loop and other processes load the CPU: a false
		// mark-down (and the mark-up after it) would land among the
		// failover subtest's flips. The default timeout, half of the
		// interval, is too short for that, so it is set apart. A closed
		// member refuses at once, so its mark-down still takes only
		// FailAfter rounds.
		Health: duet.ClusterHealthConfig{
			Interval:  50 * time.Millisecond,
			Timeout:   time.Second,
			FailAfter: 3,
			RiseAfter: 2,
		},
		OnHealthChange: func(addr string, healthy bool) {
			select {
			case f.flips <- addr:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	f.proxy = proxy
	f.handler = proxy.Handler()
	return f
}

func (f *fleet) do(t *testing.T, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// memberVersion reads one replica's served version of a model directly.
func memberVersion(t *testing.T, addr, model string) int {
	t.Helper()
	resp, err := http.Get(addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		PerModel map[string]struct {
			Version int `json:"version"`
		} `json:"per_model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.PerModel[model].Version
}

// TestClusterFleet runs a 3-replica fleet through its lifecycle: consistent
// placement, a rolling version install crossing a live estimate stream, and
// replica-failure failover with health-check mark-down. The subtests share
// one fleet and must run in order.
func TestClusterFleet(t *testing.T) {
	f := startFleet(t, 3)
	owners := f.proxy.Owners("alpha")
	if len(owners) != 2 {
		t.Fatalf("replication 2 placed alpha on %v", owners)
	}

	t.Run("routing", func(t *testing.T) {
		// The same request routes to the same (primary) replica every time,
		// and that replica is the placement's first preference.
		body := `{"model":"alpha","query":"a<=3"}`
		var first string
		for i := 0; i < 5; i++ {
			rec := f.do(t, "POST", "/v1/estimate", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("estimate %d: %d %s", i, rec.Code, rec.Body.String())
			}
			replica := rec.Header().Get("X-Duet-Replica")
			if first == "" {
				first = replica
			}
			if replica != first {
				t.Fatalf("routing flapped: %s then %s", first, replica)
			}
		}
		if first != owners[0] {
			t.Fatalf("routed to %s, placement prefers %s", first, owners[0])
		}
		// The fleet placement view agrees.
		rec := f.do(t, "GET", "/v1/models", "")
		var placement struct {
			Models []struct {
				Name   string   `json:"name"`
				Owners []string `json:"owners"`
			} `json:"models"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &placement); err != nil {
			t.Fatal(err)
		}
		if len(placement.Models) != 1 || placement.Models[0].Name != "alpha" ||
			len(placement.Models[0].Owners) != 2 {
			t.Fatalf("placement view: %s", rec.Body.String())
		}
	})

	t.Run("rolling install", func(t *testing.T) {
		// Save a v2 artifact on the primary owner (where a lifecycle retrain
		// would have written it).
		cfg2 := f.cfg
		cfg2.Seed = 99
		next := duet.New(f.tbl, cfg2)
		af, err := os.Create(filepath.Join(f.dirs[owners[0]], "alpha.v2.duet"))
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Save(af); err != nil {
			t.Fatal(err)
		}
		af.Close()

		// A live estimate stream crosses the rollout; every request must
		// complete — the peer drain-swaps, it never goes dark.
		stop := make(chan struct{})
		errc := make(chan string, 256)
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					body := fmt.Sprintf(`{"model":"alpha","query":"a<=%d"}`, i%8+1)
					rec := f.do(t, "POST", "/v1/estimate", body)
					if rec.Code != http.StatusOK {
						select {
						case errc <- fmt.Sprintf("worker %d req %d: %d %s", w, i, rec.Code, rec.Body.String()):
						default:
						}
					}
				}
			}(w)
		}

		rec := f.do(t, "POST", "/v1/models/alpha/rollout", `{"version":2}`)
		close(stop)
		wg.Wait()
		if rec.Code != http.StatusOK {
			t.Fatalf("rollout: %d %s", rec.Code, rec.Body.String())
		}
		var out struct {
			Failed  int `json:"failed"`
			Results []struct {
				Addr, Status string
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 || len(out.Results) != 2 {
			t.Fatalf("rollout results: %s", rec.Body.String())
		}
		select {
		case e := <-errc:
			t.Fatalf("estimate dropped during rollout: %s", e)
		default:
		}
		// The peer installed v2; the source keeps serving what it has until
		// its own lifecycle (or a pull) swaps it.
		for _, res := range out.Results {
			switch res.Status {
			case "source":
			case "installed":
				if v := memberVersion(t, res.Addr, "alpha"); v != 2 {
					t.Fatalf("%s serving version %d after install", res.Addr, v)
				}
			default:
				t.Fatalf("rollout result: %+v", res)
			}
		}
	})

	t.Run("failover", func(t *testing.T) {
		// Drain any startup flips, then kill the primary owner.
		for {
			select {
			case <-f.flips:
				continue
			default:
			}
			break
		}
		f.servers[owners[0]].Close()
		killed := time.Now()

		// The very next estimate fails over to the surviving owner — no
		// waiting for the health checker.
		rec := f.do(t, "POST", "/v1/estimate", `{"model":"alpha","query":"a<=3"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate after kill: %d %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Duet-Replica"); got != owners[1] {
			t.Fatalf("failed over to %s, want %s", got, owners[1])
		}

		// The checker marks the member down within its hysteresis window
		// (FailAfter=3 probes at 50ms; generous deadline for loaded CI).
		select {
		case addr := <-f.flips:
			if addr != owners[0] {
				t.Fatalf("flipped %s, killed %s", addr, owners[0])
			}
		case <-time.After(3 * time.Second):
			t.Fatal("member never marked down")
		}
		if time.Since(killed) > 2*time.Second {
			t.Fatalf("mark-down took %v", time.Since(killed))
		}

		// Routing settles on the survivor without failover retries.
		rec = f.do(t, "POST", "/v1/estimate", `{"model":"alpha","query":"a<=4"}`)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Duet-Replica") != owners[1] {
			t.Fatalf("post-markdown estimate: %d via %s", rec.Code, rec.Header().Get("X-Duet-Replica"))
		}
		// Proxy health reflects the degraded member.
		rec = f.do(t, "GET", "/v1/healthz", "")
		var hz struct {
			Status  string `json:"status"`
			Members []struct {
				Addr    string `json:"addr"`
				Healthy bool   `json:"healthy"`
			} `json:"members"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
		if hz.Status != "ok" {
			t.Fatalf("fleet health %q with 2 of 3 members up", hz.Status)
		}
		for _, m := range hz.Members {
			if m.Addr == owners[0] && m.Healthy {
				t.Fatalf("killed member still marked healthy: %s", rec.Body.String())
			}
		}
	})
}
