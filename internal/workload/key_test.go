package workload

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"duet/internal/relation"
)

// referenceKey is CanonicalKey as first written (sort.Slice over a heap
// copy); the current function must produce its bytes exactly, or every
// cached estimate would be keyed differently.
func referenceKey(q Query) string {
	if len(q.Preds) == 0 {
		return ""
	}
	ps := make([]Predicate, len(q.Preds))
	copy(ps, q.Preds)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Col != ps[j].Col {
			return ps[i].Col < ps[j].Col
		}
		if ps[i].Op != ps[j].Op {
			return ps[i].Op < ps[j].Op
		}
		return ps[i].Code < ps[j].Code
	})
	buf := make([]byte, 0, 8*len(ps))
	for i, p := range ps {
		if i > 0 && p == ps[i-1] {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(p.Col))
		buf = append(buf, byte(p.Op))
		buf = binary.AppendUvarint(buf, uint64(uint32(p.Code)))
	}
	return string(buf)
}

// keyQueries draws n queries on t: Rand-Q and In-Q shapes with two-sided
// ranges, predicates shuffled and some repeated, so lists run past the
// 16-predicate stack copy.
func keyQueries(t *relation.Table, n int) []Query {
	rng := rand.New(rand.NewSource(int64(n)))
	rq := RandQConfig(t.NumCols(), n/2)
	rq.MultiPredCols = 3
	qs := append(Generate(t, rq), Generate(t, InQConfig(t.NumCols(), n-n/2, LargestColumn(t)))...)
	for i := range qs {
		ps := qs[i].Preds
		for d := rng.Intn(12); d > 0; d-- {
			ps = append(ps, ps[rng.Intn(len(ps))])
		}
		rng.Shuffle(len(ps), func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
		qs[i].Preds = ps
	}
	return qs
}

// TestCanonicalKeyMatchesReference pins the key bytes over 10,000 random
// queries on each of the benchmark's two tables.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	for _, tbl := range []*relation.Table{relation.SynDMV(20000, 1), relation.SynCensus(20000, 1)} {
		longest := 0
		for i, q := range keyQueries(tbl, 10000) {
			longest = max(longest, len(q.Preds))
			if got, want := q.CanonicalKey(), referenceKey(q); got != want {
				t.Fatalf("%s query %d (%v): key %x, reference %x", tbl.Name, i, q.Preds, got, want)
			}
		}
		if longest <= 16 {
			t.Fatalf("%s: longest query has %d predicates; the heap path went untested", tbl.Name, longest)
		}
	}
	if (Query{}).CanonicalKey() != "" {
		t.Fatal("empty query must have the empty key")
	}
}

// TestCanonicalKeyAllocatesOnlyTheString: one allocation per key, the
// string, for a query of up to 16 predicates.
func TestCanonicalKeyAllocatesOnlyTheString(t *testing.T) {
	q := keyQueries(relation.SynDMV(2000, 1), 1)[0]
	q.Preds = q.Preds[:min(len(q.Preds), 16)]
	if a := testing.AllocsPerRun(100, func() { _ = q.CanonicalKey() }); a != 1 {
		t.Fatalf("CanonicalKey allocates %v times per call, want 1", a)
	}
}

// BenchmarkCanonicalKey keys DMV queries with the current function and with
// the reference, for the per-query cost the serve engine pays.
func BenchmarkCanonicalKey(b *testing.B) {
	qs := Generate(relation.SynDMV(20000, 1), RandQConfig(11, 1024))
	for _, fn := range []struct {
		name string
		key  func(Query) string
	}{{"current", Query.CanonicalKey}, {"reference", referenceKey}} {
		b.Run(fn.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = fn.key(qs[i%len(qs)])
			}
		})
	}
}
