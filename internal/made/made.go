// Package made implements MADE (Germain et al., 2015) and ResMADE masked
// autoregressive networks over per-column input/output blocks, the network
// family used by Naru, UAE and Duet.
//
// The input vector is partitioned into one block per table column (the
// column's value/predicate encoding); the output vector is partitioned into
// one block per column holding logits over that column's distinct values.
// Unit degrees guarantee the autoregressive property: output block i depends
// only on input blocks j < i, so block 0 is the unconditional distribution
// P(C_0) and block i models P(C_i | inputs_<i).
package made

import (
	"fmt"
	"math/rand"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// Config describes a MADE network.
type Config struct {
	InBlocks  []int // width of each column's input encoding block
	OutBlocks []int // width of each column's output block (its NDV)
	Hidden    []int // hidden layer widths; for Residual nets all must be equal
	Residual  bool  // build ResMADE: Hidden[k] pairs become residual blocks
	Seed      int64
}

// MADE is a masked autoregressive network.
type MADE struct {
	Cfg    Config
	Net    *nn.Sequential
	Masked []*nn.MaskedLinear // Net's masked layers, nested ones too, in build order
	In     nn.Blocks          // input block layout
	Out    nn.Blocks          // output (logit) block layout
}

// New builds the network over unit degrees, the rule each nn.MaskedLinear
// keeps. With N columns, input block j has degree j+1, hidden units cycle
// degrees 1..N-1, and output block j (degree j+1) connects to hidden units of
// strictly smaller degree: the output layer's input degrees are the hidden
// ones plus one. Output block 0 thus receives no input connections and is
// produced by bias alone, as required for the unconditional P(C_0).
func New(cfg Config) *MADE {
	n := len(cfg.InBlocks)
	if n == 0 || n != len(cfg.OutBlocks) {
		panic(fmt.Sprintf("made: bad block config in=%d out=%d", len(cfg.InBlocks), len(cfg.OutBlocks)))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MADE{Cfg: cfg, In: nn.NewBlocks(cfg.InBlocks), Out: nn.NewBlocks(cfg.OutBlocks)}
	masked := func(inDeg, outDeg []int) *nn.MaskedLinear {
		l := nn.NewMaskedLinear(inDeg, outDeg, rng)
		m.Masked = append(m.Masked, l)
		return l
	}

	var layers []nn.Layer
	prevDeg := blockDegrees(cfg.InBlocks)
	if cfg.Residual {
		if len(cfg.Hidden) == 0 {
			panic("made: residual net needs at least one hidden width")
		}
		h := cfg.Hidden[0]
		for _, w := range cfg.Hidden {
			if w != h {
				panic("made: residual net requires equal hidden widths")
			}
		}
		hDeg := hiddenDegrees(h, n)
		// Input projection.
		layers = append(layers, masked(prevDeg, hDeg), nn.NewReLU())
		// One residual block per configured hidden layer.
		for range cfg.Hidden {
			inner := nn.NewSequential(
				masked(hDeg, hDeg),
				nn.NewReLU(),
				masked(hDeg, hDeg),
			)
			layers = append(layers, nn.NewResidual(inner), nn.NewReLU())
		}
		prevDeg = hDeg
	} else {
		for _, h := range cfg.Hidden {
			hDeg := hiddenDegrees(h, n)
			layers = append(layers, masked(prevDeg, hDeg), nn.NewReLU())
			prevDeg = hDeg
		}
	}
	strict := make([]int, len(prevDeg))
	for i, d := range prevDeg {
		strict[i] = d + 1
	}
	layers = append(layers, masked(strict, blockDegrees(cfg.OutBlocks)))
	m.Net = nn.NewSequential(layers...)
	return m
}

// blockDegrees expands per-block widths into a unit degree vector where every
// unit of block j has degree j+1.
func blockDegrees(blocks []int) []int {
	var deg []int
	for j, w := range blocks {
		for k := 0; k < w; k++ {
			deg = append(deg, j+1)
		}
	}
	return deg
}

// hiddenDegrees assigns degrees 1..n-1 cyclically to width units. With a
// single column there are no valid hidden degrees; units get degree 1 and the
// output layer's degree rule disconnects them, leaving a bias-only
// unconditional model.
func hiddenDegrees(width, n int) []int {
	maxDeg := n - 1
	if maxDeg < 1 {
		maxDeg = 1
	}
	deg := make([]int, width)
	for i := range deg {
		deg[i] = 1 + i%maxDeg
	}
	return deg
}

// Forward runs the network on a batch of encoded inputs on the default
// worker set; a caller with a set of its own runs m.Net.Forward.
func (m *MADE) Forward(x *tensor.Matrix) *tensor.Matrix { return m.Net.Forward(tensor.Default(), x) }

// Backward backpropagates the logit gradient and returns the input gradient,
// on the default worker set like Forward.
func (m *MADE) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	return m.Net.Backward(tensor.Default(), dOut)
}

// Params returns all trainable parameters.
func (m *MADE) Params() []*nn.Param { return m.Net.Params() }

// NumCols returns the number of columns (blocks).
func (m *MADE) NumCols() int { return m.In.N() }
