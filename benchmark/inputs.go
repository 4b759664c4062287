package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"duet"
	"duet/internal/relation"
	"duet/internal/workload"
)

// datasetSeed generates every table and initialises every model. The dataset
// is part of the benchmark's definition, like a scale factor: it is the same
// on every run, so two runs measure the same model and the accuracy figures
// compare. Everything the program is asked — queries, expressions, arrival
// order, ingested rows — derives from -seed.
const datasetSeed = 1

// Sizes of the generated inputs. The pools are cycled; each is several times
// the 4,096-entry result cache, so a cycled query never hits it.
const (
	burstPool  = 32768 // distinct queries, 64 per call
	pointSeq   = 65536 // requests per caller before the sequence cycles
	pointBack  = 1024  // a repeat draws from the caller's last pointBack requests
	exprPool   = 32768 // distinct expressions of the HTTP workloads
	labelled   = 1024  // queries the q-error is taken over
	checkBatch = 256   // queries of each bitwise output check
	fillerPool = 4096  // queries that push every ladder input out of a result cache
	ingestRows = 128   // rows per ingest batch
)

// inputs is everything a workload feeds the program, made from the seed
// before set-up starts. Only the fields a workload uses are filled.
type inputs struct {
	queries  []workload.Query // distinct; burst: 64 consecutive per call
	seqs     [][]int32        // embed_point: per caller, indices into queries
	exprs    []string         // queries rendered as WHERE expressions, same order
	bodies   [][]byte         // POST /v1/estimate bodies, same order; body i names model i%len(models)
	ingest   [2][]byte        // churn: the two alternating POST /v1/ingest bodies
	labelled []workload.LabeledQuery
	check    []workload.Query // distinct from queries: the bitwise checks
	filler   []workload.Query // distinct from queries and check
}

// subSeed gives each input stream its own generator.
func subSeed(seed int64, stream int) int64 { return seed*1000003 + int64(stream)*7919 + 17 }

// distinctQueries draws n Rand-Q queries with distinct canonical keys, none
// of them in seen, and adds them to seen.
func distinctQueries(t *relation.Table, n int, seed int64, seen map[string]bool) []workload.Query {
	out := make([]workload.Query, 0, n)
	for round := 0; len(out) < n; round++ {
		cfg := workload.RandQConfig(t.NumCols(), n)
		cfg.Seed = seed + int64(round)*104729
		for _, q := range workload.Generate(t, cfg) {
			k := q.CanonicalKey()
			if seen[k] {
				continue
			}
			seen[k] = true
			if out = append(out, q); len(out) == n {
				break
			}
		}
	}
	return out
}

// renderExpr writes q as the expression ParseQuery turns back into q: every
// predicate value is taken from the column's dictionary.
func renderExpr(t *relation.Table, q workload.Query) string {
	var b strings.Builder
	for i, p := range q.Preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		c := t.Cols[p.Col]
		b.WriteString(c.Name)
		b.WriteString(p.Op.String())
		if c.Kind == relation.KindString {
			b.WriteString("'" + c.ValueString(p.Code) + "'")
		} else {
			b.WriteString(c.ValueString(p.Code))
		}
	}
	return b.String()
}

// estimateBody is one POST /v1/estimate body: a single "query" or, for more
// than one expression, "queries".
func estimateBody(model string, exprs []string) []byte {
	req := map[string]any{"model": model}
	if len(exprs) == 1 {
		req["query"] = exprs[0]
	} else {
		req["queries"] = exprs
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// skewedRows draws n rows whose every column takes one of two dictionary
// values picked by rng, so the batch's distribution is far from the table's
// and brings no value the dictionaries lack.
func skewedRows(t *relation.Table, n int, rng *rand.Rand) [][]string {
	picks := make([][2]string, t.NumCols())
	for ci, c := range t.Cols {
		for k := range picks[ci] {
			picks[ci][k] = c.ValueString(int32(rng.Intn(c.NumDistinct())))
		}
	}
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = make([]string, t.NumCols())
		for ci := range rows[r] {
			rows[r][ci] = picks[ci][rng.Intn(2)]
		}
	}
	return rows
}

func ingestBody(model string, t *relation.Table, rows [][]string) []byte {
	vals := make([][]any, len(rows))
	for r, row := range rows {
		vals[r] = make([]any, len(row))
		for ci, s := range row {
			if t.Cols[ci].Kind == relation.KindString {
				vals[r][ci] = s
			} else {
				vals[r][ci] = json.Number(s)
			}
		}
	}
	b, err := json.Marshal(map[string]any{"model": model, "rows": vals})
	if err != nil {
		panic(err)
	}
	return b
}

// makeInputs generates a workload's inputs from the seed against its table.
func makeInputs(def *workloadDef, t *relation.Table, seed int64, callers int) *inputs {
	in := &inputs{}
	seen := map[string]bool{}
	in.check = distinctQueries(t, checkBatch, subSeed(seed, 1), seen)
	in.filler = distinctQueries(t, fillerPool, subSeed(seed, 2), seen)
	// The accuracy probe belongs to the dataset, not to the traffic: the same
	// labelled queries on every seed, so that q-error moves only when the
	// model or its arithmetic does.
	in.labelled = duet.Label(t, distinctQueries(t, labelled, subSeed(datasetSeed, 3), map[string]bool{}))

	switch def.name {
	case "embed_burst":
		in.queries = distinctQueries(t, burstPool, subSeed(seed, 4), seen)
	case "embed_point":
		// 70% of a caller's requests are new queries, so its sequence needs
		// that share of pointSeq; each caller draws from its own range.
		perCaller := pointSeq * 7 / 10
		in.queries = distinctQueries(t, perCaller*callers, subSeed(seed, 4), seen)
		in.seqs = make([][]int32, callers)
		for c := range in.seqs {
			rng := rand.New(rand.NewSource(subSeed(seed, 10+c)))
			seq := make([]int32, 0, pointSeq)
			next := int32(c * perCaller)
			for len(seq) < pointSeq {
				if len(seq) > 0 && rng.Float64() < 0.3 {
					back := 1 + rng.Intn(min(pointBack, len(seq)))
					seq = append(seq, seq[len(seq)-back])
				} else if next < int32((c+1)*perCaller) {
					seq = append(seq, next)
					next++
				} else {
					break // the repeat share ran low; a shorter cycle is still valid
				}
			}
			in.seqs[c] = seq
		}
	default: // the HTTP workloads
		in.queries = distinctQueries(t, exprPool, subSeed(seed, 4), seen)
	}
	in.exprs = make([]string, len(in.queries))
	for i, q := range in.queries {
		in.exprs[i] = renderExpr(t, q)
	}
	if def.replicas > 0 {
		in.bodies = make([][]byte, len(in.exprs))
		for i, e := range in.exprs {
			in.bodies[i] = estimateBody(def.models[i%len(def.models)], []string{e})
		}
	}
	if def.lifecycle {
		rng := rand.New(rand.NewSource(subSeed(seed, 5)))
		for k := range in.ingest {
			in.ingest[k] = ingestBody(def.models[0], t, skewedRows(t, ingestRows, rng))
		}
	}
	return in
}

// digest hashes every generated input, so a test can tell that one seed
// gives the same bytes twice.
func (in *inputs) digest() string {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, qs := range [][]workload.Query{in.queries, in.check, in.filler} {
		for _, q := range qs {
			put([]byte(q.CanonicalKey()))
		}
	}
	for _, lq := range in.labelled {
		put([]byte(lq.Query.CanonicalKey() + "=" + strconv.FormatInt(lq.Card, 10)))
	}
	for _, seq := range in.seqs {
		put([]byte(fmt.Sprint(seq)))
	}
	for _, e := range in.exprs {
		put([]byte(e))
	}
	for _, b := range in.bodies {
		put(b)
	}
	for _, b := range in.ingest {
		put(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
