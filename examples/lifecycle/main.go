// Command lifecycle walks the self-maintaining serving loop end to end:
// train and serve a model, let the data drift away from it, feed the service
// new rows (ingest) and observed true cardinalities (feedback), and watch the
// lifecycle supervisor retrain in the background and hot-swap the new
// generation — versioned model file included — without a single dropped
// request.
//
//	go run ./examples/lifecycle
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"time"

	"duet"
)

func main() {
	dir, err := os.MkdirTemp("", "duet-lifecycle-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Train and serve a model, as any deployment would.
	tbl := duet.SynCensus(4000, 1)
	cfg := duet.DefaultConfig()
	tc := duet.DefaultTrainConfig()
	tc.Epochs, tc.Lambda = 3, 0
	fmt.Printf("training on %s\n", tbl.Stats())
	model := duet.New(tbl, cfg)
	duet.Train(model, tc)

	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()
	if err := reg.Add("census", tbl, model, duet.AddOpts{}); err != nil {
		log.Fatal(err)
	}

	// 2. Put it under lifecycle management: retrain when the rolling median
	// q-error of observed cardinalities crosses 2.0.
	retrained := make(chan duet.RetrainStats, 1)
	lc := duet.NewLifecycle(reg, duet.LifecyclePolicy{
		MaxMedianQErr: 2.0,
		MinFeedback:   16,
		CheckInterval: 20 * time.Millisecond,
	}, duet.LifecycleOptions{
		Dir:       dir,
		OnRetrain: func(st duet.RetrainStats) { retrained <- st },
		Log:       slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	defer lc.Close()
	if err := lc.Manage("census", duet.LifecycleManageOpts{Config: cfg, Train: tc}); err != nil {
		log.Fatal(err)
	}

	// The drifted workload: ages far outside the trained domain.
	exprs := []string{
		"age>=200", "age>=210", "age>=220", "age<=190",
		"age>=200 AND workclass<=3", "workclass<=2", "hours>=40",
	}

	// 3. The world drifts: new rows arrive whose age column lives outside the
	// trained dictionary. The service ingests them (the served model keeps
	// answering from its trained snapshot) and, as the execution engine
	// observes true cardinalities, feeds them back.
	fmt.Println("\ndrift: ingesting out-of-domain rows + feeding back observed cardinalities")
	tripped := false
	for batch := 0; !tripped && batch < 30; batch++ {
		rows := make([][]string, 50)
		for i := range rows {
			row := make([]string, tbl.NumCols())
			row[0] = strconv.Itoa(200 + (batch*50+i)%40) // age
			for c := 1; c < tbl.NumCols(); c++ {
				row[c] = "1"
			}
			rows[i] = row
		}
		if _, err := lc.Ingest("census", rows); err != nil {
			log.Fatal(err)
		}
		backing, err := lc.BackingTable("census")
		if err != nil {
			log.Fatal(err)
		}
		for _, expr := range exprs {
			q, err := duet.ParseQuery(backing, expr)
			if err != nil {
				log.Fatal(err)
			}
			fb, err := lc.Feedback("census", expr, duet.Card(backing, q))
			if err != nil {
				log.Fatal(err)
			}
			if fb.Tripped {
				fmt.Printf("policy tripped after %d ingested rows: median feedback q-error %.2f\n",
					lc.Stats()[0].PendingRows, fb.MedianQErr)
				tripped = true
				break
			}
		}
	}
	if !tripped {
		log.Fatal("policy never tripped")
	}

	// 4. The supervisor retrains and hot-swaps on its own; requests keep
	// flowing throughout (the registry drains the old generation).
	st := <-retrained
	if st.Err != nil {
		log.Fatal(st.Err)
	}
	fmt.Printf("\nretrained: kind=%s version=%d rows=%d train=%s swap=%s\n",
		st.Kind, st.Version, st.Rows, st.TrainDuration.Round(time.Millisecond), st.SwapLatency.Round(time.Microsecond))
	fmt.Printf("versioned model: %s\n", st.Path)

	// 5. Accuracy on the drifted workload recovered.
	swapped, err := reg.Table("census")
	if err != nil {
		log.Fatal(err)
	}
	res, err := reg.Query(context.Background(), duet.QueryRequest{Model: "census", Exprs: exprs})
	if err != nil {
		log.Fatal(err)
	}
	errs := make([]float64, 0, len(exprs))
	for i, expr := range exprs {
		q, err := duet.ParseQuery(swapped, expr)
		if err != nil {
			log.Fatal(err)
		}
		errs = append(errs, duet.QError(res.Cards[i], float64(duet.Card(swapped, q))))
	}
	sort.Float64s(errs)
	fmt.Printf("post-swap median q-error on the drifted workload: %.2f\n", errs[len(errs)/2])
	fmt.Printf("lifecycle state: %+v\n", lc.Stats()[0])
}
