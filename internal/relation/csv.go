package relation

import (
	"encoding/csv"
	"fmt"
	"io"
)

// LoadCSV reads a CSV stream into a dictionary-encoded table. When header is
// true the first record names the columns; otherwise columns are named
// col0..colN-1. Column kinds are inferred: a column where every value parses
// as int64 becomes KindInt, else float64 → KindFloat, else KindString.
func LoadCSV(r io.Reader, name string, header bool) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: empty csv")
	}
	var names []string
	if header {
		names = records[0]
		records = records[1:]
	} else {
		names = make([]string, len(records[0]))
		for i := range names {
			names[i] = fmt.Sprintf("col%d", i)
		}
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: csv has a header but no rows")
	}
	ncols := len(names)
	raw := make([][]string, ncols)
	for i := range raw {
		raw[i] = make([]string, len(records))
	}
	for ri, rec := range records {
		if len(rec) != ncols {
			return nil, fmt.Errorf("relation: row %d has %d fields, expected %d", ri, len(rec), ncols)
		}
		for ci, v := range rec {
			raw[ci][ri] = v
		}
	}
	cols := make([]*Column, ncols)
	for ci, vals := range raw {
		cols[ci] = inferColumn(names[ci], vals)
	}
	return NewTable(name, cols), nil
}

// inferColumn encodes vals as the first kind every value parses as.
func inferColumn(name string, vals []string) *Column {
	for _, k := range []dictionary{intKind, floatKind} {
		if c, err := k.encodeCells(name, vals); err == nil {
			return c
		}
	}
	return NewStringColumn(name, vals)
}

// WriteCSV writes the table with a header row.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.Cols))
	for r := 0; r < t.NumRows(); r++ {
		for i, c := range t.Cols {
			rec[i] = c.ValueString(c.Codes.At(r))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
