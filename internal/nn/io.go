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
// Parameters are written in slice order; ReadParams decodes them and
// Saved.Into assigns them to a model with the identical architecture.
func SaveParams(w io.Writer, params []*Param) error {
	enc := gob.NewEncoder(w)
	blobs := make([]paramBlob, len(params))
	for i, p := range params {
		blobs[i] = paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data}
	}
	return enc.Encode(blobs)
}

// Saved is a decoded parameter stream: the values SaveParams wrote, read
// before any model exists to receive them.
type Saved []paramBlob

// ReadParams decodes a stream SaveParams wrote. gob reads a message and
// grows a slice in bounded chunks, so what it allocates is O(the bytes r
// holds) whatever lengths the stream claims.
func ReadParams(r io.Reader) (Saved, error) {
	var blobs []paramBlob
	if err := gob.NewDecoder(r).Decode(&blobs); err != nil {
		return nil, fmt.Errorf("nn: decode params: %w", err)
	}
	return blobs, nil
}

// Len is the number of values the stream carries.
func (s Saved) Len() int {
	n := 0
	for _, b := range s {
		n += len(b.Data)
	}
	return n
}

// Into copies the saved values into params, validating shapes and value
// counts positionally.
func (s Saved) Into(params []*Param) error {
	if len(s) != len(params) {
		return fmt.Errorf("nn: load params: got %d blobs, model has %d params", len(s), len(params))
	}
	for i, b := range s {
		p := params[i]
		if b.Rows != p.W.Rows || b.Cols != p.W.Cols || len(b.Data) != len(p.W.Data) {
			return fmt.Errorf("nn: load params: %q shape %dx%d with %d values, model expects %dx%d",
				b.Name, b.Rows, b.Cols, len(b.Data), p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, b.Data)
	}
	return nil
}
