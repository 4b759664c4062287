package core

import (
	"math/rand"
	"testing"

	"duet/internal/workload"
)

func TestValueCodecWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		ndv      int
		mode     ValueEncoding
		wantMode ValueEncoding
		width    int
	}{
		{8, EncAuto, EncOneHot, 8},
		{100, EncAuto, EncBinary, 7},
		{1000, EncAuto, EncEmbed, 16},
		{100, EncOneHot, EncOneHot, 100},
		{100, EncBinary, EncBinary, 7},
		{2, EncBinary, EncBinary, 1},
		{100, EncEmbed, EncEmbed, 16},
	}
	for _, tc := range cases {
		vc := newValueCodec(tc.ndv, tc.mode, 16, 512, rng)
		if vc.mode != tc.wantMode {
			t.Fatalf("ndv=%d mode=%v: resolved %v want %v", tc.ndv, tc.mode, vc.mode, tc.wantMode)
		}
		if vc.width != tc.width {
			t.Fatalf("ndv=%d mode=%v: width %d want %d", tc.ndv, tc.mode, vc.width, tc.width)
		}
	}
}

func TestBinaryEncodingDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vc := newValueCodec(37, EncBinary, 0, 0, rng)
	seen := map[string]bool{}
	buf := make([]float32, vc.width)
	for c := int32(0); c < 37; c++ {
		vc.encode(buf, c)
		key := ""
		for _, b := range buf {
			if b != 0 && b != 1 {
				t.Fatalf("binary encoding produced %v", b)
			}
			if b == 1 {
				key += "1"
			} else {
				key += "0"
			}
		}
		if seen[key] {
			t.Fatalf("code %d collides: %s", c, key)
		}
		seen[key] = true
	}
}

func TestOneHotEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vc := newValueCodec(5, EncOneHot, 0, 0, rng)
	buf := make([]float32, 5)
	vc.encode(buf, 3)
	for i, v := range buf {
		want := float32(0)
		if i == 3 {
			want = 1
		}
		if v != want {
			t.Fatalf("one-hot: %v", buf)
		}
	}
}

func TestEmbeddingEncodeAndBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vc := newValueCodec(10, EncEmbed, 4, 0, rng)
	buf := make([]float32, 4)
	vc.encode(buf, 7)
	for i, v := range buf {
		if v != vc.embed.Lookup(7)[i] {
			t.Fatal("embed encode should copy the table row")
		}
	}
	vc.backward(7, []float32{1, 1, 1, 1})
	if vc.embed.Table.G.Row(7)[0] != 1 {
		t.Fatal("embedding gradient not routed")
	}
	if len(vc.params()) != 1 {
		t.Fatal("embed codec should expose its table param")
	}
	rng2 := rand.New(rand.NewSource(5))
	vcB := newValueCodec(10, EncBinary, 0, 0, rng2)
	if len(vcB.params()) != 0 {
		t.Fatal("binary codec has no params")
	}
}

func TestColumnEncoderLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ce := newColumnEncoder(newValueCodec(4, EncOneHot, 0, 0, rng))
	if ce.width != 4+int(workload.NumOps)+1 {
		t.Fatalf("width=%d", ce.width)
	}
	buf := make([]float32, ce.width)
	encodePred(buf, ce.codec, workload.OpGe, 2)
	if buf[2] != 1 || buf[4+int(workload.OpGe)] != 1 {
		t.Fatalf("pred encoding %v", buf)
	}
	if buf[ce.width-1] != 0 {
		t.Fatal("wildcard bit set on a predicate")
	}
	ce.encodeWildcard(buf)
	for i := 0; i < ce.width-1; i++ {
		if buf[i] != 0 {
			t.Fatalf("wildcard encoding %v", buf)
		}
	}
	if buf[ce.width-1] != 1 {
		t.Fatal("wildcard bit missing")
	}
}

func TestMPSNPredEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vc := newValueCodec(8, EncOneHot, 0, 0, rng)
	if predEncWidth(vc) != 8+int(workload.NumOps) {
		t.Fatalf("predEncWidth=%d", predEncWidth(vc))
	}
	buf := make([]float32, predEncWidth(vc))
	encodePred(buf, vc, workload.OpLt, 5)
	if buf[5] != 1 || buf[8+int(workload.OpLt)] != 1 {
		t.Fatalf("mpsn pred encoding %v", buf)
	}
}
