// Package core implements Duet, the paper's primary contribution: a hybrid
// neural cardinality estimator that learns the conditional distribution
// P(C_i | (pred, v)_<i) from a virtual table of predicates, estimates any
// conjunctive range query with a single network forward pass (no sampling),
// and trains on both data (cross-entropy) and queries (smoothed Q-Error)
// because the whole estimation path is differentiable.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"duet/internal/nn"
	"duet/internal/workload"
)

// ValueEncoding selects how a column's predicate value (a dictionary code)
// is embedded into the network input, mirroring the paper's binary/one-hot/
// embedding strategies.
type ValueEncoding uint8

// Value encoding strategies.
const (
	// EncAuto uses one-hot for small domains, binary for medium, and a
	// learned embedding above Config.EmbedThreshold.
	EncAuto ValueEncoding = iota
	EncOneHot
	EncBinary
	EncEmbed
)

// String returns the encoding name.
func (e ValueEncoding) String() string {
	switch e {
	case EncAuto:
		return "auto"
	case EncOneHot:
		return "onehot"
	case EncBinary:
		return "binary"
	case EncEmbed:
		return "embed"
	default:
		return fmt.Sprintf("ValueEncoding(%d)", uint8(e))
	}
}

// valueCodec encodes one column's dictionary codes into float vectors and,
// for the embedding strategy, routes gradients back into the table.
type valueCodec struct {
	ndv   int
	mode  ValueEncoding // resolved, never EncAuto
	width int
	embed *nn.Embedding // EncEmbed only
}

func newValueCodec(ndv int, mode ValueEncoding, embedDim, embedThreshold int, rng *rand.Rand) *valueCodec {
	vc := &valueCodec{ndv: ndv}
	vc.mode, vc.width = codecShape(ndv, mode, embedDim, embedThreshold)
	if vc.mode == EncEmbed {
		vc.embed = nn.NewEmbedding(ndv, embedDim, rng)
	}
	return vc
}

// codecShape resolves EncAuto for a column of ndv values and returns the
// encoding a codec uses and the width of its vectors.
func codecShape(ndv int, mode ValueEncoding, embedDim, embedThreshold int) (ValueEncoding, int) {
	if mode == EncAuto {
		switch {
		case ndv <= 32:
			mode = EncOneHot
		case ndv <= embedThreshold:
			mode = EncBinary
		default:
			mode = EncEmbed
		}
	}
	switch mode {
	case EncOneHot:
		return mode, ndv
	case EncBinary:
		return mode, max(bits.Len(uint(ndv-1)), 1)
	case EncEmbed:
		return mode, embedDim
	}
	return mode, 0
}

// encode writes the encoding of code into dst (len == width).
func (vc *valueCodec) encode(dst []float32, code int32) {
	switch vc.mode {
	case EncOneHot:
		clear(dst)
		dst[code] = 1
	case EncBinary:
		for i := range dst {
			dst[i] = float32((code >> i) & 1)
		}
	case EncEmbed:
		copy(dst, vc.embed.Lookup(int(code)))
	}
}

// backward routes the gradient of an encoded block into the embedding table
// (a no-op for the data-determined encodings).
func (vc *valueCodec) backward(code int32, d []float32) {
	if vc.mode == EncEmbed {
		vc.embed.AccumGrad(int(code), d)
	}
}

// freeze returns a copy of vc whose embedding table, if any, is a copy of the
// current weights without gradient storage.
func (vc *valueCodec) freeze() *valueCodec {
	c := *vc
	if e := vc.embed; e != nil {
		c.embed = &nn.Embedding{Num: e.Num, Dim: e.Dim, Table: frozen(e.Table)}
	}
	return &c
}

func (vc *valueCodec) params() []*nn.Param {
	if vc.embed != nil {
		return vc.embed.Params()
	}
	return nil
}

// wildcardOp marks an unconstrained column in sampled virtual tuples.
const wildcardOp = 0xff

// columnEncoder lays out one column's input block for the direct (non-MPSN)
// model: [value bits | op one-hot (5) | wildcard bit].
type columnEncoder struct {
	codec *valueCodec
	width int
}

func newColumnEncoder(codec *valueCodec) *columnEncoder {
	return &columnEncoder{codec: codec, width: codec.width + int(workload.NumOps) + 1}
}

// encodeWildcard writes the wildcard-skipping encoding: zero value and op
// vectors plus a set wildcard indicator, the scheme Naru introduced and the
// paper reuses for unconstrained columns.
func (ce *columnEncoder) encodeWildcard(dst []float32) {
	clear(dst)
	dst[ce.width-1] = 1
}

// backward routes the value-block gradient into the codec.
func (ce *columnEncoder) backward(op uint8, code int32, d []float32) {
	if op == wildcardOp {
		return
	}
	ce.codec.backward(code, d[:ce.codec.width])
}

// predEncWidth is the per-predicate encoding width used by MPSN inputs:
// value bits plus the op one-hot (no wildcard bit; an unconstrained column
// is an empty predicate set).
func predEncWidth(codec *valueCodec) int { return codec.width + int(workload.NumOps) }

// encodePred writes one (op, code) predicate into dst: the value's encoding,
// then the op one-hot, and zeros to the end of dst (for a direct column
// block, its wildcard bit; for an MPSN input, nothing).
func encodePred(dst []float32, codec *valueCodec, op workload.Op, code int32) {
	clear(dst)
	codec.encode(dst[:codec.width], code)
	dst[codec.width+int(op)] = 1
}
