// Example: serving Duet estimates to concurrent callers through the batched
// inference engine.
//
// Duet answers a query with one deterministic forward pass, so concurrent
// single-query requests can ride a shared micro-batch without changing any
// individual estimate. duet.NewEstimator wraps a trained model in exactly
// that: a canonical-key LRU result cache, a packed batch inference plan, and
// coalescing that forms batches only behind a busy model — a caller that
// finds it idle runs its forward pass inline.
//
// Run with: go run ./examples/serving
//
// The same engine is exposed over HTTP by cmd/duetserve; census.json next to
// this file is a one-model manifest, so requests need not name the model:
//
//	go run ./cmd/duetserve -manifest examples/serving/census.json &
//	curl -s localhost:8080/v1/estimate -H 'Content-Type: application/json' -d '{"query": "age<=40 AND hours>30"}'
//	curl -s localhost:8080/v1/stats
package main

import (
	"context"
	"fmt"
	"sync"

	"duet"
)

func main() {
	// A small synthetic table and a briefly trained model keep the example
	// fast; swap in LoadCSV + duettrain output for real data.
	tbl := duet.SynCensus(20000, 1)
	model := duet.New(tbl, duet.DefaultConfig())
	tc := duet.DefaultTrainConfig()
	tc.Epochs = 2
	duet.Train(model, tc)

	est := duet.NewEstimator(model, duet.ServeConfig{})
	defer est.Close()
	ctx := context.Background()

	// A fixed query set so the cache has something to hit.
	queries := duet.GenerateWorkload(tbl, duet.RandQConfig(tbl.NumCols(), 64))

	// 16 concurrent callers issue single-query requests. Whoever finds the
	// model idle runs a forward pass at once; the misses that arrive while it
	// runs are handed on together as the next pass, so "forward passes" below
	// comes out well under "requests" minus "cache hits".
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w*50+i)%len(queries)]
				if _, err := est.Estimate(ctx, q); err != nil {
					fmt.Println("estimate:", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// An explicit batch takes the same path with more than one query.
	cards, err := est.EstimateBatch(ctx, queries[:8])
	if err != nil {
		panic(err)
	}
	for i, card := range cards {
		fmt.Printf("%-40s -> %8.1f rows\n", queries[i], card)
	}

	st := est.Stats()
	fmt.Printf("\n%d requests: %d cache hits, %d forward passes for %d queries (largest batch %d)\n",
		st.Requests, st.CacheHits, st.Batches, st.BatchedQueries, st.MaxBatch)
}
