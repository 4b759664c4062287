package main

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"duet"
)

// runProxy is the -proxy entry point: a thin stateless router over a replica
// fleet. Membership comes from -members (comma-separated base URLs) or from
// the manifest's "cluster" block; -replication overrides the factor either
// way. The proxy owns no models and keeps no state beyond counters, so any
// number of proxies can front the same fleet without coordination.
func runProxy(addr, membersFlag, manifestPath string, replication int, suite *duet.ObsSuite, sloOverrides map[string]time.Duration, sloOff bool) error {
	// Health flips (member marked down / back in rotation) are logged by the
	// proxy itself through suite's logger, alongside the mark-down counters.
	cfg := duet.ClusterConfig{
		Replication: replication,
		Obs:         suite.Metrics,
		Tracer:      suite.Tracer,
		Log:         suite.Logger(),
		Pprof:       suite.Pprof,
	}
	var man *Manifest
	switch {
	case membersFlag != "":
		for _, m := range strings.Split(membersFlag, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.Members = append(cfg.Members, m)
			}
		}
	case manifestPath != "":
		var err error
		man, err = loadManifest(manifestPath)
		if err != nil {
			return err
		}
		if man.Cluster == nil {
			return fmt.Errorf("manifest %s has no \"cluster\" block; -proxy needs one (or -members)", manifestPath)
		}
		cfg.Members = man.Cluster.Members
		cfg.VNodes = man.Cluster.VNodes
		cfg.Health = man.Cluster.health()
		if replication == 0 {
			cfg.Replication = man.Cluster.Replication
		}
	default:
		return fmt.Errorf("-proxy needs -members URL,URL,... or -manifest with a \"cluster\" block")
	}
	// A proxy has no plan to roofline; only explicit budgets (manifest block
	// or -slo, typically forward/route) arm here.
	applySLOBudgets(suite, nil, man, sloOverrides, sloOff)

	proxy, err := duet.NewClusterProxy(cfg)
	if err != nil {
		return err
	}
	defer proxy.Close()

	slog.Info("proxying", "replicas", len(cfg.Members), "addr", addr, "members", strings.Join(cfg.Members, ", "))
	return serveUntilSignal(addr, proxy.Handler(), func() {})
}
