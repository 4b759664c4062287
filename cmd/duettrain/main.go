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
// Join-view mode trains a join view a duetserve manifest declares. The
// manifest's tables are built and the view materialized by the code duetserve
// assembles the deployment with; the view's form picks what the model trains
// over: the inner equi-join of a two-table entry, the full outer join with
// per-table fanout columns of a join-graph entry ("tables"/"edges"), or —
// with "sample": N — a stream of N unbiased full-outer-join samples per
// epoch drawn from the base tables, so memory stays bounded by the budget
// however large the join is. The view's "large" field picks the
// architecture; -epochs, -batch, -lambda, -hybrid and -trainq train it.
// Save the model where the manifest's "model" field (default
// <modeldir>/<name>.duet) points and duetserve loads it:
//
//	duettrain -manifest deploy.json -join ocr -hybrid -epochs 20 -model models/ocr.duet
//
// The manifest describes the tables, so -csv, -syn, -rows, -seed, -large and
// -pack are refused alongside it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"duet"
	"duet/cmd/internal/manifest"
	"duet/internal/artifact"
	"duet/internal/exec"
	"duet/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "duettrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("duettrain", flag.ExitOnError)
	csvPath := fs.String("csv", "", "input CSV file with header row")
	syn := fs.String("syn", "", "built-in synthetic dataset: dmv | kdd | census")
	rows := fs.Int("rows", 20000, "rows for synthetic datasets")
	seed := fs.Int64("seed", 1, "generation seed")
	modelPath := fs.String("model", "model.duet", "output model file")
	epochs := fs.Int("epochs", 20, "training epochs")
	batch := fs.Int("batch", 256, "batch size")
	lambda := fs.Float64("lambda", 0.1, "hybrid loss weight (0 = data-only DuetD)")
	hybrid := fs.Bool("hybrid", false, "generate a training workload and train hybridly")
	trainQ := fs.Int("trainq", 2000, "training workload size for -hybrid")
	large := fs.Bool("large", false, "use the large MADE architecture (DMV-style)")
	pack := fs.String("pack", "", "pack the input table into this .duetcol columnar file and exit (no training)")
	manifestPath := fs.String("manifest", "", "deployment manifest JSON declaring the join view -join names (see package docs)")
	join := fs.String("join", "", "train the manifest's join view of this name")
	fs.Parse(args)

	var tbl *duet.Table
	var sampler *duet.JoinSampler
	var err error
	useLarge := *large
	switch {
	case *manifestPath != "":
		var refused []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "csv", "syn", "rows", "seed", "large", "pack":
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 {
			return fmt.Errorf("%s cannot go with -manifest: the manifest declares the view's tables and architecture", strings.Join(refused, ", "))
		}
		var view *manifest.JoinViewSpec
		view, tbl, sampler, err = buildView(*manifestPath, *join)
		if err == nil {
			useLarge = view.Large
		}
	case *join != "":
		return errors.New("-join names a join view of a manifest; pass -manifest too")
	case *pack != "":
		return packTable(*pack, *csvPath, *syn, *rows, *seed)
	default:
		tbl, err = duet.OpenTable(*csvPath, *syn, *rows, *seed)
	}
	if err != nil {
		return err
	}
	fmt.Println("table:", tbl.Stats())

	cfg := duet.DefaultConfig()
	if useLarge {
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
		tc.SourceRows = tbl.NumRows()
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
		return err
	}
	fmt.Printf("saved %s (%.2f MB)\n", *modelPath, float64(m.SizeBytes())/1e6)
	return nil
}

// buildView loads the manifest, builds its tables and materializes its join
// view name — with manifest.Manifest.Tables and JoinViewSpec.Materialize, as
// duetserve does — returning the sampler that streams its training tuples
// when the view is sampled.
func buildView(path, name string) (*manifest.JoinViewSpec, *duet.Table, *duet.JoinSampler, error) {
	if name == "" {
		return nil, nil, nil, errors.New("-manifest needs -join NAME, the join view to train")
	}
	man, err := manifest.Load(path)
	if err != nil {
		return nil, nil, nil, err
	}
	var view *manifest.JoinViewSpec
	var names []string
	for i := range man.Joins {
		if man.Joins[i].Name == name {
			view = &man.Joins[i]
		}
		names = append(names, man.Joins[i].Name)
	}
	if view == nil {
		return nil, nil, nil, fmt.Errorf("manifest %s declares no join view %q (join views: %s)", path, name, strings.Join(names, ", "))
	}
	tables, err := man.Tables(filepath.Dir(path))
	if err != nil {
		return nil, nil, nil, err
	}
	tbl, _, sampler, err := view.Materialize(tables)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("join %q: %w", name, err)
	}
	return view, tbl, sampler, nil
}

// packTable writes one base table as a .duetcol columnar file.
func packTable(path, csvPath, syn string, rows int, seed int64) error {
	tbl, err := duet.OpenTable(csvPath, syn, rows, seed)
	if err != nil {
		return err
	}
	if err := duet.PackTable(path, tbl); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("packed %s: %s (%.2f MB on disk)\n", path, tbl.Stats(), float64(fi.Size())/1e6)
	return nil
}
