package registry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"duet/internal/obs"
	"duet/internal/workload"
)

// QueryRequest is the one options-struct entry point into the registry's
// estimation surface. Exactly one of Expr, Exprs, or Queries must be set:
//
//   - Expr routes a single WHERE-style expression (join clauses included)
//     through the join-aware router; Model optionally pins the target.
//   - Exprs routes a batch of expressions; resolutions are grouped by the
//     generation they were routed on so each backend sees one coalesced
//     call, fanout calibration included.
//   - Queries answers pre-parsed queries against Model (required), skipping
//     the router entirely — the hot path for callers that resolved once and
//     replay many queries.
//
// Registry.Query is the only exported way to get an estimate out of a
// registry; Resolve exposes the routing step alone, for inspection.
type QueryRequest struct {
	// Model names the target estimator. Optional for Expr/Exprs (the router
	// infers it), required for Queries.
	Model string
	// Expr is one conjunctive WHERE-style expression.
	Expr string
	// Exprs is a batch of expressions, answered positionally.
	Exprs []string
	// Queries are pre-parsed queries against Model's table.
	Queries []workload.Query
}

// QueryResult answers a QueryRequest positionally: Models[i] is the model
// that answered item i (always the request's Model for pre-parsed queries)
// and Cards[i] its estimate.
type QueryResult struct {
	Models []string
	Cards  []float64
}

// Query answers a QueryRequest: the estimation entry point the HTTP server,
// the cluster proxy's replicas, the lifecycle supervisor and the bench
// harness share. Each expression is answered on the generation it was routed
// on, pinned from routing to estimate, so a concurrent swap, reload or Close
// drains the request before that generation goes away and never answers it
// with another generation's model.
func (r *Registry) Query(ctx context.Context, req QueryRequest) (QueryResult, error) {
	exprs := req.Exprs
	switch {
	case req.Expr != "" && req.Exprs == nil && req.Queries == nil:
		exprs = []string{req.Expr}

	case req.Exprs != nil && req.Expr == "" && req.Queries == nil:
		// exprs is the batch already

	case req.Queries != nil && req.Expr == "" && req.Exprs == nil:
		if req.Model == "" {
			return QueryResult{}, errors.New("registry: pre-parsed queries require a model name")
		}
		_, g, err := r.acquire(req.Model)
		if err != nil {
			return QueryResult{}, err
		}
		cards, err := r.estimate(ctx, g, req.Queries)
		g.release()
		if err != nil {
			return QueryResult{}, err
		}
		models := make([]string, len(req.Queries))
		for i := range models {
			models[i] = req.Model
		}
		return QueryResult{Models: models, Cards: cards}, nil

	default:
		return QueryResult{}, errors.New(`registry: a query request needs exactly one of Expr, Exprs, or Queries`)
	}

	models := make([]string, len(exprs))
	resolutions := make([]Resolution, 0, len(exprs))
	defer func() {
		for _, res := range resolutions {
			res.gen.release()
		}
	}()
	sp := obs.FromContext(ctx).StartSpan("route")
	for i, expr := range exprs {
		res, err := r.resolve(req.Model, expr)
		if err != nil {
			sp.End()
			if req.Exprs != nil {
				err = fmt.Errorf("queries[%d]: %w", i, err)
			}
			return QueryResult{}, err
		}
		models[i] = res.Model
		resolutions = append(resolutions, res)
	}
	if len(models) == 1 {
		sp.SetAttr("model", models[0])
	}
	sp.End()
	cards, err := r.estimateResolutions(ctx, resolutions)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Models: models, Cards: cards}, nil
}

// estimate answers qs with a pinned generation's engine, observing the
// per-model latency histogram: the one place an estimate leaves the
// registry, for every QueryRequest mode.
func (r *Registry) estimate(ctx context.Context, g *generation, qs []workload.Query) ([]float64, error) {
	if r.met.timed {
		defer g.estSec.ObserveSince(time.Now())
	}
	return g.est.EstimateBatch(ctx, qs)
}

// estimateResolutions answers a batch of pinned resolutions, grouping them by
// the generation they were routed on so each backend sees one batched call
// carrying both the predicate and the calibration queries. The result order
// matches the input; the caller releases the pins.
func (r *Registry) estimateResolutions(ctx context.Context, rs []Resolution) ([]float64, error) {
	type group struct {
		qs   []workload.Query
		pred []int // index into qs of each resolution's predicate query
		cal  []int // index into qs of each resolution's calibration (-1 none)
		idx  []int // position in rs
	}
	groups := map[*generation]*group{}
	for i, res := range rs {
		g := groups[res.gen]
		if g == nil {
			g = &group{}
			groups[res.gen] = g
		}
		g.idx = append(g.idx, i)
		g.pred = append(g.pred, len(g.qs))
		g.qs = append(g.qs, res.Query)
		if res.Calib != nil {
			g.cal = append(g.cal, len(g.qs))
			g.qs = append(g.qs, *res.Calib)
		} else {
			g.cal = append(g.cal, -1)
		}
	}
	out := make([]float64, len(rs))
	for gen, g := range groups {
		got, err := r.estimate(ctx, gen, g.qs)
		if err != nil {
			return nil, err
		}
		for j, i := range g.idx {
			calib := 0.0
			if g.cal[j] >= 0 {
				calib = got[g.cal[j]]
			}
			out[i] = rs[i].estimate(got[g.pred[j]], calib)
		}
	}
	return out, nil
}
