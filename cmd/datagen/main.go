// Command datagen writes one of the synthetic evaluation datasets as CSV.
//
// Usage:
//
//	datagen -syn dmv -rows 100000 -seed 1 -out dmv.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"duet/internal/relation"
)

func main() {
	syn := flag.String("syn", "census", "dmv | kdd | census")
	rows := flag.Int("rows", 20000, "row count")
	seed := flag.Int64("seed", 1, "generation seed")
	out := flag.String("out", "", "output CSV path (default <syn>.csv)")
	flag.Parse()

	t, err := relation.Synthetic(*syn, *rows, *seed)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = *syn + ".csv"
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := relation.WriteCSV(w, t); err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", path, t.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
