package main

import (
	"errors"
	"log/slog"
	"strings"

	"duet"
	"duet/cmd/internal/manifest"
)

// runProxy is the -proxy entry point: a thin stateless router over the
// replica fleet the manifest's "cluster" block lists. The proxy owns no
// models and keeps no state beyond counters, so any number of proxies can
// front the same fleet without coordination.
func runProxy(addr string, man *manifest.Manifest, suite *duet.ObsSuite) error {
	cs := man.Cluster
	if cs == nil {
		return errors.New("-proxy needs a manifest with a \"cluster\" block")
	}
	// Health flips (member marked down / back in rotation) are logged by the
	// proxy itself through suite's logger, alongside the mark-down counters.
	cfg := duet.ClusterConfig{
		Members:     cs.Members,
		Replication: cs.Replication,
		VNodes:      cs.VNodes,
		Health:      cs.HealthConfig(),
		Obs:         suite.Metrics,
		Tracer:      suite.Tracer,
		Log:         suite.Logger(),
		Pprof:       suite.Pprof,
	}
	// A proxy has no plan to roofline; only the manifest's budgets
	// (typically forward and route) arm here.
	applySLOBudgets(suite, nil, man)

	proxy, err := duet.NewClusterProxy(cfg)
	if err != nil {
		return err
	}
	defer proxy.Close()

	slog.Info("proxying", "replicas", len(cfg.Members), "addr", addr, "members", strings.Join(cfg.Members, ", "))
	return serveUntilSignal(addr, proxy.Handler(), func() {})
}
