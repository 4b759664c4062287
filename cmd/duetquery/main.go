// Command duetquery loads a trained Duet model and estimates cardinalities
// for conjunctive WHERE-style expressions.
//
// Usage:
//
//	duetquery -csv table.csv -model model.duet "price<=100 AND state='NY'"
//	duetquery -csv census.duetcol -model census.duet "age<=40"
//
// Each argument is one expression: predicates are column(=|<|>|<=|>=)value
// joined by AND; string literals are single-quoted. With -exact the tool
// also prints the true cardinality and the Q-Error.
package main

import (
	"flag"
	"fmt"
	"os"

	"duet"
	"duet/internal/artifact"
	"duet/internal/workload"
)

func main() {
	csvPath := flag.String("csv", "", "CSV or .duetcol file the model was trained on")
	syn := flag.String("syn", "", "synthetic dataset: dmv | kdd | census")
	rows := flag.Int("rows", 20000, "rows for synthetic datasets")
	seed := flag.Int64("seed", 1, "generation seed")
	modelPath := flag.String("model", "model.duet", "trained model file")
	exact := flag.Bool("exact", false, "also compute the exact cardinality")
	flag.Parse()

	tbl, err := duet.OpenTable(*csvPath, *syn, *rows, *seed)
	if err != nil {
		fatal(err)
	}
	m, _, err := artifact.Load(*modelPath, tbl)
	if err != nil {
		fatal(err)
	}

	if flag.NArg() == 0 {
		fatal(fmt.Errorf("no query given; pass expressions like \"price<=100 AND qty>3\""))
	}
	for _, expr := range flag.Args() {
		q, err := workload.ParseQuery(tbl, expr)
		if err != nil {
			fatal(err)
		}
		est := m.EstimateCard(q)
		fmt.Printf("%-50s estimate=%.1f", expr, est)
		if *exact {
			act := duet.Card(tbl, q)
			fmt.Printf(" exact=%d q-error=%.3f", act, duet.QError(est, float64(act)))
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "duetquery:", err)
	os.Exit(1)
}
