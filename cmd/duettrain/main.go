// Command duettrain trains a Duet model on a CSV table (or a built-in
// synthetic dataset) and saves it for use by duetquery and duetserve.
//
// Usage:
//
//	duettrain -csv table.csv -model model.duet
//	duettrain -syn census -rows 48842 -hybrid -epochs 20 -model census.duet
//
// Pack mode converts a table into the .duetcol columnar format — the
// memory-mapped on-disk layout duetserve and later duettrain runs open
// without decoding (a -csv argument ending in .duetcol is read through the
// column store):
//
//	duettrain -syn census -rows 2000000 -pack census.duetcol
//	duettrain -csv census.duetcol -model census.duet
//
// Join-view mode materializes the inner equi-join of two tables and trains
// the model over the join result (the NeuroCard-style reduction duetserve's
// registry routes join queries to):
//
//	duettrain -join -left-csv orders.csv -left-col cust_id \
//	          -right-csv customers.csv -right-col id \
//	          -join-name oc -model oc.duet
//
// Join-graph mode generalizes to N tables: -join-tables names each base
// table's source and -join-edges spells the spanning tree of equi-join
// clauses; the model trains over the full outer join with per-table fanout
// columns (relation.MultiJoin), the substrate duetserve's registry serves
// multi-way join queries from:
//
//	duettrain -join -join-tables "orders=orders.csv,customers=customers.csv,regions=regions.csv" \
//	          -join-edges "orders.cust_id=customers.id,customers.region_id=regions.id" \
//	          -join-name ocr -model ocr.duet
//
// -join-sample N switches join-graph mode to sampled materialization: the
// model trains on a stream of N-per-epoch unbiased full-outer-join samples
// drawn directly from the base tables (the sampler JoinGraphSpec.Build
// returns), so memory stays bounded by the sample budget however large the
// join is. The saved model loads against any sample of the same graph (the
// layout depends only on the graph). Register it with a manifest "sample"
// field or JoinGraphSpec.Sample so duetserve anchors estimates on base-table
// cardinalities:
//
//	duettrain -join -join-tables ... -join-edges ... -join-sample 100000 \
//	          -join-name ocr -model ocr.duet
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"duet"
	"duet/internal/artifact"
	"duet/internal/exec"
	"duet/internal/workload"
)

func main() {
	csvPath := flag.String("csv", "", "input CSV file with header row")
	syn := flag.String("syn", "", "built-in synthetic dataset: dmv | kdd | census")
	rows := flag.Int("rows", 20000, "rows for synthetic datasets")
	seed := flag.Int64("seed", 1, "generation seed")
	modelPath := flag.String("model", "model.duet", "output model file")
	epochs := flag.Int("epochs", 20, "training epochs")
	batch := flag.Int("batch", 256, "batch size")
	lambda := flag.Float64("lambda", 0.1, "hybrid loss weight (0 = data-only DuetD)")
	hybrid := flag.Bool("hybrid", false, "generate a training workload and train hybridly")
	trainQ := flag.Int("trainq", 2000, "training workload size for -hybrid")
	large := flag.Bool("large", false, "use the large MADE architecture (DMV-style)")
	pack := flag.String("pack", "", "pack the input table into this .duetcol columnar file and exit (no training)")
	// Join-view mode.
	join := flag.Bool("join", false, "train over the join of several tables instead of one table")
	leftCSV := flag.String("left-csv", "", "join mode: left CSV file")
	leftSyn := flag.String("left-syn", "", "join mode: left synthetic dataset")
	leftCol := flag.String("left-col", "", "join mode: left join column")
	rightCSV := flag.String("right-csv", "", "join mode: right CSV file")
	rightSyn := flag.String("right-syn", "", "join mode: right synthetic dataset")
	rightCol := flag.String("right-col", "", "join mode: right join column")
	joinName := flag.String("join-name", "joinview", "join mode: name of the materialized view")
	// Join-graph mode (N tables).
	joinTables := flag.String("join-tables", "", `join-graph mode: comma list of name=source base tables (source: a CSV path or syn:dmv|kdd|census)`)
	joinEdges := flag.String("join-edges", "", `join-graph mode: comma list of equi-join clauses "a.x=b.y" forming a spanning tree`)
	joinSample := flag.Int("join-sample", 0, "join-graph mode: sampled materialization budget — train on this many FOJ samples per epoch instead of materializing the join (0 = materialize)")
	flag.Parse()

	graphMode := *joinTables != "" || *joinEdges != ""
	if err := validateJoinSample(*joinSample, *join, graphMode); err != nil {
		fatal(err)
	}
	if *pack != "" {
		if *join || graphMode {
			fatal(fmt.Errorf("-pack applies to single base tables; materialize the join first and pack its CSV"))
		}
		tbl, err := duet.OpenTable(*csvPath, *syn, *rows, *seed)
		if err != nil {
			fatal(err)
		}
		if err := duet.PackTable(*pack, tbl); err != nil {
			fatal(err)
		}
		fi, err := os.Stat(*pack)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("packed %s: %s (%.2f MB on disk)\n", *pack, tbl.Stats(), float64(fi.Size())/1e6)
		return
	}
	var tbl *duet.Table
	var sampler *duet.JoinSampler
	var err error
	switch {
	case graphMode:
		if !*join {
			fatal(fmt.Errorf("-join-tables/-join-edges require -join"))
		}
		tbl, sampler, err = buildJoinGraphTable(*joinTables, *joinEdges, *joinName, *rows, *seed, *joinSample)
	case *join:
		tbl, err = buildJoinTable(*leftCSV, *leftSyn, *leftCol, *rightCSV, *rightSyn, *rightCol, *joinName, *rows, *seed)
	default:
		tbl, err = duet.OpenTable(*csvPath, *syn, *rows, *seed)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("table:", tbl.Stats())

	cfg := duet.DefaultConfig()
	if *large {
		cfg = duet.DMVConfig()
	}
	m := duet.New(tbl, cfg)
	tc := duet.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.BatchSize = *batch
	tc.Lambda = *lambda
	if sampler != nil {
		// Sampled join materialization: stream fresh FOJ draws every step;
		// the sample table only supplies dictionaries and the epoch's scale.
		tc.Source = sampler
		tc.SourceRows = *joinSample
	}
	if *hybrid && *lambda > 0 {
		fmt.Printf("labelling %d training queries...\n", *trainQ)
		gen := workload.InQConfig(tbl.NumCols(), *trainQ, workload.LargestColumn(tbl))
		tc.Workload = exec.Label(tbl, workload.Generate(tbl, gen))
	}
	tc.OnEpoch = func(epoch int, s duet.EpochStats) bool {
		fmt.Printf("epoch %3d: L_data=%.4f L_query=%.4f (%.0f tuples/s)\n",
			epoch, s.DataLoss, s.QueryLoss, s.TuplesPerSec)
		return true
	}
	duet.Train(m, tc)

	if err := artifact.Save(*modelPath, m); err != nil {
		fatal(err)
	}
	fmt.Printf("saved %s (%.2f MB)\n", *modelPath, float64(m.SizeBytes())/1e6)
}

// validateJoinSample rejects -join-sample outside join-graph mode: the
// legacy two-table path materializes an inner equi-join and has no sampled
// counterpart, so silently ignoring the flag would train on the wrong
// substrate.
func validateJoinSample(sample int, join, graphMode bool) error {
	if sample == 0 {
		return nil
	}
	if sample < 0 {
		return fmt.Errorf("-join-sample must be positive, got %d", sample)
	}
	if graphMode && !join {
		return fmt.Errorf("-join-sample %d needs -join alongside -join-tables/-join-edges", sample)
	}
	if !graphMode {
		return fmt.Errorf("-join-sample %d applies only to join-graph mode (-join with -join-tables/-join-edges); "+
			"the legacy two-table -left-*/-right-* mode materializes an inner equi-join and cannot be sampled — "+
			"declare the join as a two-table graph instead", sample)
	}
	return nil
}

// buildJoinGraphTable loads every named base table and materializes the full
// outer join of the edge tree with fanout columns — or, with sample > 0, a
// sample-budget snapshot of it plus the sampler that streams training
// tuples — the training substrate for a registry join-graph view. Synthetic
// sources share -rows and offset -seed by their position so the tables
// differ.
func buildJoinGraphTable(tablesArg, edgesArg, name string, rows int, seed int64, sample int) (*duet.Table, *duet.JoinSampler, error) {
	if tablesArg == "" || edgesArg == "" {
		return nil, nil, fmt.Errorf("join-graph mode needs both -join-tables and -join-edges")
	}
	spec := duet.JoinGraphSpec{Sample: sample}
	tables := map[string]*duet.Table{}
	for i, part := range strings.Split(tablesArg, ",") {
		nameSrc := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(nameSrc) != 2 || nameSrc[0] == "" || nameSrc[1] == "" {
			return nil, nil, fmt.Errorf("bad -join-tables entry %q (want name=source)", part)
		}
		var tbl *duet.Table
		var err error
		if syn, ok := strings.CutPrefix(nameSrc[1], "syn:"); ok {
			tbl, err = duet.OpenTable("", syn, rows, seed+int64(i))
		} else {
			tbl, err = duet.OpenTable(nameSrc[1], "", rows, seed)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("table %q: %w", nameSrc[0], err)
		}
		tbl.Name = nameSrc[0]
		tables[tbl.Name] = tbl
		spec.Tables = append(spec.Tables, tbl.Name)
	}
	// Reuse the query parser for the clause list: commas become ANDs.
	rq, err := workload.ParseRaw(strings.ReplaceAll(edgesArg, ",", " AND "))
	if err != nil {
		return nil, nil, fmt.Errorf("-join-edges: %w", err)
	}
	if len(rq.Preds) > 0 {
		return nil, nil, fmt.Errorf("-join-edges %q contains a non-join predicate", edgesArg)
	}
	spec.Edges = rq.Joins
	joined, sampler, err := spec.Build(name, func(t string) (*duet.Table, error) { return tables[t], nil }, seed)
	if err != nil {
		return nil, nil, err
	}
	if sampler != nil {
		fmt.Printf("join graph over %d tables, %d edges: sampling %d of %d FOJ rows (constant memory)\n",
			len(spec.Tables), len(spec.Edges), sample, sampler.Total())
	} else {
		fmt.Printf("join graph over %d tables, %d edges: %d rows (full outer, fanout columns)\n",
			len(spec.Tables), len(spec.Edges), joined.NumRows())
	}
	return joined, sampler, nil
}

// buildJoinTable loads both sides and materializes their inner equi-join,
// the training substrate for a registry join view. Synthetic sides share the
// -rows/-seed flags; the right side's seed is offset so the two tables are
// not identical.
func buildJoinTable(leftCSV, leftSyn, leftCol, rightCSV, rightSyn, rightCol, name string, rows int, seed int64) (*duet.Table, error) {
	if leftCol == "" || rightCol == "" {
		return nil, fmt.Errorf("join mode needs -left-col and -right-col")
	}
	left, err := duet.OpenTable(leftCSV, leftSyn, rows, seed)
	if err != nil {
		return nil, fmt.Errorf("left table: %w", err)
	}
	right, err := duet.OpenTable(rightCSV, rightSyn, rows, seed+1)
	if err != nil {
		return nil, fmt.Errorf("right table: %w", err)
	}
	joined, err := duet.BuildJoinView(name, left, leftCol, right, rightCol)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s ⋈ %s on %s=%s: %d rows\n", left.Name, right.Name, leftCol, rightCol, joined.NumRows())
	return joined, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "duettrain:", err)
	os.Exit(1)
}
