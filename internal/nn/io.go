package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// paramBlob is the gob wire format for one parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Data       []float32
}

// SaveParams serializes parameter values (not gradients) to w with gob.
// Parameters are written in slice order; LoadParams must be called on a
// model with the identical architecture.
func SaveParams(w io.Writer, params []*Param) error {
	enc := gob.NewEncoder(w)
	blobs := make([]paramBlob, len(params))
	for i, p := range params {
		blobs[i] = paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data}
	}
	return enc.Encode(blobs)
}

// LoadParams restores parameter values saved by SaveParams into params,
// validating shapes and value counts positionally.
func LoadParams(r io.Reader, params []*Param) error {
	dec := gob.NewDecoder(r)
	var blobs []paramBlob
	if err := dec.Decode(&blobs); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: load params: got %d blobs, model has %d params", len(blobs), len(params))
	}
	for i, b := range blobs {
		p := params[i]
		if b.Rows != p.W.Rows || b.Cols != p.W.Cols || len(b.Data) != len(p.W.Data) {
			return fmt.Errorf("nn: load params: %q shape %dx%d with %d values, model expects %dx%d",
				b.Name, b.Rows, b.Cols, len(b.Data), p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, b.Data)
	}
	return nil
}
