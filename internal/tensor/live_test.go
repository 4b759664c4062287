package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// maskedCase is one masked layer's three products at a shape: an in×out
// weight matrix under the degree rule outDeg[o] >= inDeg[i], dead cells ±0,
// a batch×in input, a batch×out upstream gradient, and the input-gradient
// columns its caller reads.
type maskedCase struct {
	name          string
	inDeg, outDeg []int
	read          []bool
	w, x, dy, g   *Matrix // g: a gradient to accumulate onto, +0 where dead
}

func (c *maskedCase) allowed(i, o int) bool { return c.outDeg[o] >= c.inDeg[i] }

// rowOf turns a cell rule into NewLive's row form.
func rowOf(allowed func(i, o int) bool) func(i int, live []bool) {
	return func(i int, live []bool) {
		for o := range live {
			live[o] = allowed(i, o)
		}
	}
}

// maskDegrees returns n degrees over cols columns: block-ordered (ascending
// runs of random widths, MADE's input and output layers) or cyclic from
// first (its hidden layers, and the output layer's inputs at first 2).
func maskDegrees(rng *rand.Rand, n, cols int, cyclic bool, first int) []int {
	deg := make([]int, n)
	if cyclic {
		for i := range deg {
			deg[i] = first + i%max(cols-1, 1)
		}
		return deg
	}
	cuts := make([]int, cols-1)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	for i := range deg {
		deg[i] = 1
		for _, c := range cuts {
			if i >= c {
				deg[i]++
			}
		}
	}
	return deg
}

// newMaskedCase builds a case from its shape and the rng's draws: finite
// values with exact and negative zeros among them, dead weights ±0 (a
// negative draw times zero), and one column in three of dX unread.
func newMaskedCase(rng *rand.Rand, batch, in, out, cols int, cycIn, cycOut bool) *maskedCase {
	c := &maskedCase{
		name:   fmt.Sprintf("%dx%dx%d cols %d cyclic %v/%v", batch, in, out, cols, cycIn, cycOut),
		inDeg:  maskDegrees(rng, in, cols, cycIn, 1),
		outDeg: maskDegrees(rng, out, cols, cycOut, 1),
		read:   make([]bool, in),
	}
	fill := func(m *Matrix) *Matrix {
		for i := range m.Data {
			switch rng.Intn(6) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = float32(math.Copysign(0, -1))
			default:
				m.Data[i] = rng.Float32()*4 - 2
			}
		}
		return m
	}
	c.w, c.x, c.dy, c.g = fill(New(in, out)), fill(New(batch, in)), fill(New(batch, out)), fill(New(in, out))
	for i := range c.read {
		c.read[i] = rng.Intn(3) != 0
	}
	for i := 0; i < in; i++ {
		for o := 0; o < out; o++ {
			if !c.allowed(i, o) {
				c.w.Data[i*out+o] *= 0
				c.g.Data[i*out+o] = 0
			}
		}
	}
	return c
}

// check runs the three products through the case's live region and through
// the dense product on w and compares them bit for bit: Mul's every cell,
// MulBT's read columns (an unread one's value is unspecified), and MulATAdd's every
// cell once each result's dead cells are set to +0, the clear a masked
// layer runs after it.
func (c *maskedCase) check(t *testing.T, w *Workers) {
	t.Helper()
	in, out, batch := c.w.Rows, c.w.Cols, c.x.Rows
	live := NewLive(in, out, rowOf(c.allowed), func(i int) bool { return c.read[i] })
	name := fmt.Sprintf("%s, tier %s, %d workers", c.name, KernelTier(), w.width)
	want, got := New(batch, out), New(batch, out)
	w.Mul(want, c.x, c.w)
	w.MulLive(got, c.x, c.w, live)
	bitsEqual(t, "Mul "+name, got, want)

	want, got = New(batch, in), New(batch, in)
	w.MulBT(want, c.dy, c.w)
	w.MulBTLive(got, c.dy, c.w, live)
	for r := 0; r < batch; r++ {
		for i := 0; i < in; i++ {
			if !c.read[i] {
				want.Data[r*in+i], got.Data[r*in+i] = 0, 0
			}
		}
	}
	bitsEqual(t, "MulBT "+name, got, want)

	want, got = c.g.Clone(), c.g.Clone()
	w.MulATAdd(want, c.x, c.dy)
	w.MulATAddLive(got, c.x, c.dy, live)
	for i := 0; i < in; i++ {
		for o := 0; o < out; o++ {
			if !c.allowed(i, o) {
				want.Data[i*out+o], got.Data[i*out+o] = 0, 0
			}
		}
	}
	bitsEqual(t, "MulATAdd "+name, got, want)
}

// maskedShapes are batch × in × out products whose widths are not tile
// multiples, one reduction on each side of gemmKC, with either side's
// degrees block-ordered or cyclic: the input layer (block → cyclic), a
// hidden layer (cyclic → cyclic) and the output layer (cyclic → block).
var maskedShapes = []struct {
	batch, in, out, cols int
	cycIn, cycOut        bool
}{
	{1, 5, 7, 3, false, true}, {13, 37, 70, 4, false, true}, {21, 70, 70, 6, true, true},
	{9, 70, 45, 5, true, false}, {40, 300, 90, 7, false, true}, {17, 90, 301, 6, true, false},
	{33, 19, 23, 2, false, false}, {8, 64, 64, 14, true, true},
}

// TestMaskedGEMMMatchesDense holds every product through a live region to
// the dense product, on every tier and at 1, 2 and 3 workers.
func TestMaskedGEMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cases []*maskedCase
	for _, sh := range maskedShapes {
		cases = append(cases, newMaskedCase(rng, sh.batch, sh.in, sh.out, sh.cols, sh.cycIn, sh.cycOut))
	}
	withTier(t, func(t *testing.T, tier string) {
		for workers := 1; workers <= 3; workers++ {
			w := NewWorkers(workers)
			for _, c := range cases {
				c.check(t, w)
			}
			w.Close()
		}
	})
}

// FuzzMaskedGEMM is TestMaskedGEMMMatchesDense on the active tier over
// fuzzed shapes, degree layouts, values and worker counts.
func FuzzMaskedGEMM(f *testing.F) {
	f.Add([]byte{12, 40, 70, 3, 0b01, 1})
	f.Add([]byte{30, 200, 50, 5, 0b11, 2})
	f.Add([]byte{5, 100, 255, 9, 0b10, 3})
	f.Add([]byte{64, 255, 255, 13, 0b00, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		batch, in, out := 1+int(data[0])%64, 1+int(data[1])+int(data[4]>>2)%64, 1+int(data[2])+int(data[4]>>4)%64
		cols := 2 + int(data[3])%14
		rng := rand.New(rand.NewSource(int64(data[5])))
		c := newMaskedCase(rng, batch, in, out, cols, data[4]&1 != 0, data[4]&2 != 0)
		w := NewWorkers(1 + int(data[5])%3)
		defer w.Close()
		c.check(t, w)
	})
}

// TestNewLiveRegions pins what each product's region skips on a MADE-shaped
// stack: the input layer's forward runs a prefix of its block-ordered
// inputs and its unread input gradient nothing, a hidden layer's two
// reductions stay dense, and every layer's gradient skips tiles.
func TestNewLiveRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inDeg := maskDegrees(rng, 40, 5, false, 1)
	hid := maskDegrees(rng, 64, 5, true, 1)
	out := maskDegrees(rng, 50, 5, false, 1)
	rule := func(in, out []int) func(i, o int) bool {
		return func(i, o int) bool { return out[o] >= in[i] }
	}
	first := NewLive(40, 64, rowOf(rule(inDeg, hid)), func(int) bool { return false })
	if first.fwd == nil || first.fwd.kLo == nil || first.dw == nil {
		t.Fatal("input layer: forward extents or gradient tiles missing")
	}
	for q := range first.dx.kLo {
		if first.dx.kLo[q] != first.dx.kHi[q] {
			t.Fatalf("input layer: unread column at position %d has extent [%d,%d)", q, first.dx.kLo[q], first.dx.kHi[q])
		}
	}
	hidden := NewLive(64, 64, rowOf(rule(hid, hid)), nil)
	if hidden.fwd != nil || hidden.dx != nil || hidden.dw == nil {
		t.Fatalf("hidden layer: regions fwd %v dx %v dw %v, want only dw", hidden.fwd, hidden.dx, hidden.dw)
	}
	strict := make([]int, len(hid))
	for i, d := range hid {
		strict[i] = d + 1
	}
	last := NewLive(64, 50, rowOf(rule(strict, out)), nil)
	if last.dx == nil || last.dx.kLo == nil || last.dw == nil {
		t.Fatal("output layer: input-gradient extents or gradient tiles missing")
	}
	if dense := NewLive(8, 8, rowOf(func(i, o int) bool { return true }), nil); dense.fwd != nil || dense.dx != nil || dense.dw != nil {
		t.Fatal("an all-live matrix has a region")
	}
}

// TestCountMACs: the counter sees the dense product's padded tiles, and a
// live region's product executes fewer.
func TestCountMACs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newMaskedCase(rng, 64, 96, 80, 6, false, true)
	w := NewWorkers(2)
	defer w.Close()
	y := New(64, 80)
	tm, tn := gemmTileM, gemmTileN
	dense := CountMACs(func() { w.Mul(y, c.x, c.w) })
	if want := int64((64+tm-1)/tm*tm) * int64((80+tn-1)/tn*tn) * 96; dense != want {
		t.Fatalf("dense Mul counted %d MACs, want %d", dense, want)
	}
	live := NewLive(96, 80, rowOf(c.allowed), nil)
	if got := CountMACs(func() { w.MulLive(y, c.x, c.w, live) }); got >= dense {
		t.Fatalf("Mul through a live region counted %d MACs, dense %d", got, dense)
	}
}

// TestGatherRowsTiersMatchGeneric drives every tier's row gather over index
// lists of every tail length, against the generic loop.
func TestGatherRowsTiersMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withTier(t, func(t *testing.T, tier string) {
		for _, n := range fuzzLengths {
			if n == 0 {
				continue
			}
			const rows = 3
			lds, ldd := n+int(rng.Intn(5)), n+int(rng.Intn(5))
			src := trickyFloats(rng, rows*lds)
			idx := make([]int32, n)
			for q, i := range rng.Perm(n) {
				idx[q] = int32(i)
			}
			want, got := trickyFloats(rng, rows*ldd), make([]float32, rows*ldd)
			copy(got, want)
			gatherRowsGeneric(want, ldd, src, lds, idx[:n-n/3], rows)
			gatherRows(got, ldd, src, lds, n, idx[:n-n/3], rows)
			bitsEqualSlices(t, fmt.Sprintf("tier %s gather of %d from %d", tier, n-n/3, n), got, want)
		}
	})
}

// TestPassIfPositiveTiersMatchGeneric: every tier's PassIfPositive gives
// the generic loop's bits over special values (NaN, ±0, ±Inf, denormals)
// and every tail length.
func TestPassIfPositiveTiersMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	withTier(t, func(t *testing.T, tier string) {
		for _, n := range fuzzLengths {
			src, gate := trickyFloats(rng, n+3), trickyFloats(rng, n+3)
			want, got := make([]float32, n+3), make([]float32, n+3)
			off := rng.Intn(min(4, n+1))
			passIfPositiveGeneric(want[off:], src[off:], gate[off:n])
			PassIfPositive(got[off:], src[off:], gate[off:n])
			bitsEqualSlices(t, fmt.Sprintf("tier %s length %d", tier, n-off), got, want)
		}
	})
}

// FuzzPassIfPositive holds the active tier's PassIfPositive to the generic
// loop on any bits, and to ReLU's rule: src where gate > 0, else +0.
func FuzzPassIfPositive(f *testing.F) {
	f.Add([]byte{0x80, 0, 0, 0, 0x7f, 0xc0, 0, 0, 0x3f, 0x80, 0, 0})
	f.Add(make([]byte, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		src, gate := make([]float32, n), make([]float32, n)
		for i := 0; i < n; i++ {
			u := func(b []byte) uint32 { return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]) }
			src[i], gate[i] = math.Float32frombits(u(data[8*i:])), math.Float32frombits(u(data[8*i+4:]))
		}
		want, got := make([]float32, n), make([]float32, n)
		passIfPositiveGeneric(want, src, gate)
		PassIfPositive(got, src, gate)
		for i := range want {
			rule := float32(0)
			if gate[i] > 0 {
				rule = src[i]
			}
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(want[i]) != math.Float32bits(rule) {
				t.Fatalf("tier %s, gate %v, src %#x: %#x, generic %#x, rule %#x", KernelTier(), gate[i],
					math.Float32bits(src[i]), math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(rule))
			}
		}
	})
}
