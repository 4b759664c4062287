package duet

// Cluster-grade serving, re-exported from internal/api, internal/cluster,
// and the admission layer in internal/serve: the versioned /v1 HTTP surface,
// consistent-hash model placement across a duetserve fleet, health-checked
// proxy routing with failover, and per-model admission control.

import (
	"duet/internal/api"
	"duet/internal/cluster"
	"duet/internal/registry"
	"duet/internal/serve"
)

type (
	// AdmissionConfig bounds the load one estimator accepts: a sustained
	// QPS token bucket plus a cap on the calls parked behind a busy model. The zero value admits
	// everything. Set it on ServeConfig.Admission (registry-wide or per
	// model via AddOpts.Serve).
	AdmissionConfig = serve.AdmissionConfig
	// OverloadError reports one admission-shed request: which bound tripped
	// and the suggested client backoff. Unwraps to ErrOverloaded.
	OverloadError = serve.OverloadError

	// QueryRequest is the one options-struct entry point into a registry's
	// estimation surface (expression, expression batch, or pre-parsed
	// queries); Registry.Query answers it.
	QueryRequest = registry.QueryRequest
	// QueryResult answers a QueryRequest positionally.
	QueryResult = registry.QueryResult
	// RegistryModelStats is one model's slice of RegistryStats: engine
	// counters plus serving identity (artifact version, swap/reload counts).
	RegistryModelStats = registry.ModelStats

	// APIServer serves a registry (and optional lifecycle supervisor) over
	// the versioned /v1 HTTP API.
	APIServer = api.Server

	// ClusterConfig assembles a proxy over a replica fleet: member URLs,
	// replication factor, ring vnodes, and health probing. Every request
	// the proxy sends a member gives up after 30 s.
	ClusterConfig = cluster.Config
	// ClusterProxy is the thin stateless routing tier of a duetserve fleet.
	ClusterProxy = cluster.Proxy
	// ClusterRing is the consistent-hash placement ring.
	ClusterRing = cluster.Ring
	// ClusterHealthConfig tunes member probing (interval, timeouts, and
	// mark-down/mark-up hysteresis).
	ClusterHealthConfig = cluster.HealthConfig
	// ClusterMemberHealth is one member's probe-state snapshot.
	ClusterMemberHealth = cluster.MemberHealth
)

// ErrOverloaded marks estimates rejected by admission control; match with
// errors.Is and unwrap the *OverloadError for the retry hint.
var ErrOverloaded = serve.ErrOverloaded

// NewAPIServer builds the /v1 HTTP server over a registry. lc may be nil
// (lifecycle endpoints answer 404); dir is the versioned-artifact directory
// ("" disables the version endpoints); suite wires the observability routes
// and middleware (nil serves without them). Mount APIServer.Handler.
func NewAPIServer(reg *Registry, lc *Lifecycle, dir string, suite *ObsSuite) *APIServer {
	return api.New(reg, lc, dir, suite)
}

// NewClusterProxy builds the routing proxy over a fleet and starts health
// probing; call ClusterProxy.Close to stop it.
func NewClusterProxy(cfg ClusterConfig) (*ClusterProxy, error) { return cluster.NewProxy(cfg) }

// NewClusterRing builds a standalone placement ring (vnodes <= 0 selects the
// default); useful for computing placement without running a proxy.
func NewClusterRing(members []string, vnodes int) (*ClusterRing, error) {
	return cluster.NewRing(members, vnodes)
}
