// Command duetserve exposes trained Duet models as an HTTP cardinality-
// estimation service backed by the multi-model registry: each model runs the
// concurrent batched serving engine, a join-aware router sends queries to the
// right estimator, and file-backed models hot-reload when their weights
// change on disk — atomically, draining in-flight requests against the old
// generation before it closes.
//
// A manifest is the one description of a deployment: the tables and join
// views a replica serves (with their weights files, training epochs, plan
// quantization and per-model engine settings), the SLO budgets, the
// lifecycle policy, and the fleet a proxy fronts. The flags are process
// settings only:
//
//	duetserve -manifest examples/serving/census.json          # one synthetic table, trains in-process
//	duetserve -manifest deploy.json -modeldir models -watch 2s
//
// A model whose weights file is missing at startup is trained data-only for
// its "train_epochs" and saved there. duettrain -manifest deploy.json -join
// NAME trains a join view offline from the same manifest, with a query
// workload if asked (see its package docs).
//
// A one-model manifest answers requests that name no model.
//
// Endpoints (all under /v1; a bare path answers 404):
//
//	POST /v1/estimate              {"model": "orders", "query": "amount<=100"}  -> {"card": ...}
//	POST /v1/estimate              {"query": "o.k = c.k AND o.amount<=100"}     -> routed to the join view
//	POST /v1/estimate              {"queries": ["a<=1", "b>2 AND c=3"]}         -> {"cards": [...]}
//	GET  /v1/models                                                            -> registered models + stats
//	POST /v1/models/{name}/reload                                              -> admin hot reload
//	GET  /v1/models/{name}/versions                                            -> retained artifact versions
//	GET  /v1/models/{name}/versions/{v}                                        -> artifact bytes
//	POST /v1/models/{name}/pull    {"source": "http://peer:8080", "version": 4} -> pull + drain-swap install
//	GET  /v1/healthz                                                           -> service health
//	GET  /v1/stats                                                             -> router + engine counters
//
// Errors use one envelope: {"error": {"code", "message", "details"}};
// admission-shed requests answer 429 with a Retry-After header (set per-model
// "qps"/"burst"/"max_queue" under "serve" in the manifest).
//
// Cluster mode: -proxy turns the process into a thin stateless router over a
// replica fleet. Models place onto replicas by consistent hashing (R replicas
// each); the proxy health-checks members, fails estimates over between
// replicas, and drives rolling version installs:
//
//	duetserve -proxy -manifest deploy.json        # fronts the manifest's "cluster" block
//	POST /v1/models/{name}/rollout {"version": 4} # rolling install across owners
//
// With a "lifecycle" block in the manifest, the service maintains itself: it
// ingests new rows, tracks drift (per-column distribution shift of ingested
// rows against the trained snapshot, rolling q-error of observed
// cardinalities), and when a threshold trips it retrains in the background —
// fine-tuning when dictionaries are unchanged, training from scratch when
// they grew — saves the new generation as a versioned model file, and
// hot-swaps drain-safely. A restart loads the newest retained generation that
// still fits the table the manifest builds (falling back, with a warning per
// skipped file, to older ones and finally the seed weights):
//
//	POST /v1/ingest             {"model": "orders", "rows": [[3, "x"], ...]}   -> rows appended + drift
//	POST /v1/feedback           {"model": "orders", "query": "amount<=100", "card": 1234}
//	GET  /v1/lifecycle                                                         -> per-model drift + retrain state
//
// SIGINT/SIGTERM shut the server down gracefully: the listener stops, open
// requests finish, and every estimator drains before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"duet"
	"duet/cmd/internal/manifest"
)

func main() {
	manifestPath := flag.String("manifest", "", "deployment manifest JSON: the models a replica serves, or the fleet -proxy fronts (see package docs)")
	modelDir := flag.String("modeldir", ".", "model directory for loading, saving, and watching weights")
	watch := flag.Duration("watch", 0, "hot-reload poll interval for file-backed models (0 disables)")
	addr := flag.String("addr", ":8080", "listen address")
	proxyMode := flag.Bool("proxy", false, "run as a cluster proxy over the manifest's \"cluster\" block instead of serving models")
	metricsOn := flag.Bool("metrics", true, "serve Prometheus metrics at GET /v1/metrics")
	traceRing := flag.Int("trace-ring", 256, "recent request traces retained for GET /v1/debug/traces (negative disables tracing)")
	slowQueryMS := flag.Int("slow-query-ms", 250, "log traced requests slower than this many milliseconds (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
	flag.Parse()

	if *manifestPath == "" {
		fatal(errors.New("pass -manifest FILE (examples/serving/census.json serves one synthetic table)"))
	}
	man, err := manifest.Load(*manifestPath)
	if err != nil {
		fatal(err)
	}

	logger := duet.NewObsLogger(os.Stderr, parseLevel(*logLevel))
	slog.SetDefault(logger)
	suite := duet.NewObsSuite(duet.ObsConfig{
		TraceRing: *traceRing,
		SlowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
		Log:       logger,
		Pprof:     *pprofOn,
	})
	if !*metricsOn {
		suite.Metrics = nil
	}
	duet.RegisterKernelMetrics(suite.Metrics)

	if *proxyMode {
		if err := runProxy(*addr, man, suite); err != nil {
			fatal(err)
		}
		return
	}

	reg := duet.NewRegistry(duet.RegistryConfig{
		Dir:           *modelDir,
		WatchInterval: *watch,
		Obs:           suite.Metrics,
		OnReload: func(name string, err error) {
			if err != nil {
				slog.Error("hot reload failed", "model", name, "error", err)
			} else {
				slog.Info("model hot-reloaded", "model", name)
			}
		},
	})
	defer reg.Close()
	var lc *duet.Lifecycle
	defer func() {
		if lc != nil {
			lc.Close() // deferred after reg.Close, so it runs first (LIFO)
		}
	}()

	if err := assembleRegistry(reg, man, filepath.Dir(*manifestPath), *modelDir); err != nil {
		fatal(err)
	}
	if man.Lifecycle != nil {
		if lc, err = startLifecycle(reg, man, filepath.Dir(*manifestPath), *modelDir, suite); err != nil {
			fatal(err)
		}
		slog.Info("lifecycle enabled: POST /ingest, POST /feedback, GET /lifecycle", "dir", *modelDir)
	}

	// Budgets arm after the registry holds its plans: the roofline default
	// for plan_exec derives from the largest resident packed plan.
	applySLOBudgets(suite, reg, man)

	// Graceful shutdown: once the listener has stopped and open requests
	// have finished, drain and close every estimator, so the drained
	// hot-reload semantics also hold at exit.
	slog.Info("serving", "models", reg.Len(), "addr", *addr, "kernel", duet.KernelTier(), "names", strings.Join(reg.Names(), ", "))
	err = serveUntilSignal(*addr, duet.NewAPIServer(reg, lc, *modelDir, suite).Handler(), func() {
		if lc != nil {
			lc.Close() // waits out in-flight retrains before the registry drains
		}
		if err := reg.Close(); err != nil {
			slog.Error("registry close failed", "error", err)
		}
	})
	if err != nil {
		fatal(err)
	}
}

// serveUntilSignal serves handler on addr until SIGINT/SIGTERM, then stops
// the listener, lets open requests finish (up to 15s), and calls drain. A
// listener that fails on its own is the returned error.
func serveUntilSignal(addr string, handler http.Handler, drain func()) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		stop()
		slog.Info("shutdown signal received; draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			slog.Error("shutdown failed", "error", err)
		}
		drain()
		slog.Info("bye")
	}
	return nil
}

// parseLevel maps the -log-level flag to a slog level (unknown → info).
func parseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "duetserve:", err)
	os.Exit(1)
}
