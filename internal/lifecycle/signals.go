package lifecycle

import (
	"context"
	"fmt"
	"sort"

	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/workload"
)

// IngestResult reports one ingest batch.
type IngestResult struct {
	Model          string  `json:"model"`
	Appended       int     `json:"appended"`
	PendingRows    int     `json:"pending_rows"`
	NewValues      int     `json:"new_values"`
	MaxColumnDrift float64 `json:"max_column_drift"`
	Tripped        bool    `json:"tripped"`
}

// Ingest appends rows (raw values, one string per column in table order) to a
// managed base-table model's backing table and updates the data-side drift
// signal: each appended value is projected onto the trained snapshot's
// dictionary and the per-column total-variation distance between the
// snapshot distribution and the appended rows is maintained online. The
// served model keeps answering from its trained snapshot until the policy
// trips and the worker hot-swaps a retrained generation; the appended rows
// are never lost — they fold into the next retrain whenever it runs.
func (s *Supervisor) Ingest(name string, rows [][]string) (IngestResult, error) {
	s.mu.Lock()
	mg, ok := s.models[name]
	if !ok {
		s.mu.Unlock()
		return IngestResult{}, fmt.Errorf("lifecycle: model %q is not managed", name)
	}
	if mg.graph != nil {
		s.mu.Unlock()
		return IngestResult{}, fmt.Errorf("lifecycle: %q is a join-graph view; ingest rows into its base tables instead", name)
	}
	s.mu.Unlock()

	// Serialize ingests per model, so backing extensions never race each
	// other, but do NOT hold the supervisor lock across the O(table)
	// copy-on-write append below — feedback, stats, and the worker keep
	// running for every model while a large table rebuilds.
	mg.ingestMu.Lock()
	defer mg.ingestMu.Unlock()
	s.mu.Lock()
	snapshot := mg.table
	backing := mg.backing
	s.mu.Unlock()

	// Project first (validating every cell), then append, then commit —
	// an invalid batch must leave no partial state behind.
	add, freshCells, err := projectRows(snapshot, rows)
	if err != nil {
		return IngestResult{}, err
	}
	grown, err := relation.AppendRows(backing, rows)
	if err != nil {
		return IngestResult{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if mg.table != snapshot {
		// A retrain swapped the snapshot mid-ingest: the counts were
		// projected onto the replaced dictionaries, so redo them against the
		// generation now serving (cells already validated; cheap).
		if add, freshCells, err = projectRows(mg.table, rows); err != nil {
			return IngestResult{}, err
		}
	}
	mg.backing = grown
	mg.pending += len(rows)
	mg.fresh += freshCells
	for ci := range add {
		for code, n := range add[ci] {
			mg.pend[ci][code] += n
		}
	}
	s.met.ingested.With(name).Add(uint64(len(rows)))
	res := IngestResult{
		Model:          name,
		Appended:       len(rows),
		PendingRows:    mg.pending,
		NewValues:      mg.fresh,
		MaxColumnDrift: mg.maxDrift(),
		Tripped:        s.trippedLocked(mg),
	}
	if res.Tripped {
		s.nudge()
	}
	return res, nil
}

// projectRows validates a batch against the snapshot's columns and returns
// its per-column counts over the snapshot dictionaries plus the number of
// cells whose values lie outside them.
func projectRows(snapshot *relation.Table, rows [][]string) ([][]float64, int, error) {
	add := emptyCounts(snapshot)
	fresh := 0
	for ri, row := range rows {
		if len(row) != snapshot.NumCols() {
			return nil, 0, fmt.Errorf("lifecycle: ingest row %d has %d values, table %q has %d columns",
				ri, len(row), snapshot.Name, snapshot.NumCols())
		}
		for ci, raw := range row {
			code, exact, err := snapshot.Cols[ci].ProjectValue(raw)
			if err != nil {
				return nil, 0, fmt.Errorf("lifecycle: ingest row %d: %w", ri, err)
			}
			add[ci][code]++
			if !exact {
				fresh++
			}
		}
	}
	return add, fresh, nil
}

// FeedbackResult reports one feedback observation.
type FeedbackResult struct {
	Model      string  `json:"model"`
	Estimate   float64 `json:"estimate"`
	QError     float64 `json:"qerror"`
	FeedbackN  int     `json:"feedback_n"`
	MedianQErr float64 `json:"median_qerr"`
	P95QErr    float64 `json:"p95_qerr"`
	Tripped    bool    `json:"tripped"`
}

// Feedback records one observed true cardinality for a query expression
// against a managed model: the expression is routed and estimated by the
// serving generation, its q-error against the observed cardinality joins the
// rolling feedback window (the feedback-side drift signal), and the
// expression+cardinality pair is retained as fine-tune material for the next
// retrain.
func (s *Supervisor) Feedback(name, expr string, card int64) (FeedbackResult, error) {
	s.mu.Lock()
	mg, ok := s.models[name]
	var version int
	if ok {
		version = mg.version
	}
	s.mu.Unlock()
	if !ok {
		return FeedbackResult{}, fmt.Errorf("lifecycle: model %q is not managed", name)
	}
	// Estimate outside the supervisor lock: the registry call can coalesce
	// with live traffic and must not serialize ingest against it.
	ans, err := s.reg.Query(context.Background(), registry.QueryRequest{Model: name, Expr: expr})
	if err != nil {
		return FeedbackResult{}, fmt.Errorf("lifecycle: feedback query: %w", err)
	}
	est := ans.Cards[0]
	qerr := workload.QError(est, float64(card))
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.models[name]; !ok || cur != mg {
		return FeedbackResult{}, fmt.Errorf("lifecycle: model %q is not managed", name)
	}
	if mg.version != version {
		// A retrain swapped generations while this estimate was in flight:
		// the q-error grades the replaced model. Recording it would seed the
		// freshly reset window with stale errors and could immediately
		// re-trip a just-fixed model, so report it without recording it.
		return FeedbackResult{
			Model:      name,
			Estimate:   est,
			QError:     qerr,
			FeedbackN:  mg.fb.len(),
			MedianQErr: mg.fb.quantile(0.50),
			P95QErr:    mg.fb.quantile(0.95),
			Tripped:    s.trippedLocked(mg),
		}, nil
	}
	mg.fb.add(fbRec{expr: expr, card: card, qerr: qerr})
	s.met.feedback.With(name).Inc()
	res := FeedbackResult{
		Model:      name,
		Estimate:   est,
		QError:     qerr,
		FeedbackN:  mg.fb.len(),
		MedianQErr: mg.fb.quantile(0.50),
		P95QErr:    mg.fb.quantile(0.95),
		Tripped:    s.trippedLocked(mg),
	}
	if res.Tripped {
		s.nudge()
	}
	return res, nil
}

// trippedLocked evaluates the policy for one model. Callers hold s.mu.
func (s *Supervisor) trippedLocked(mg *managed) bool {
	p := s.pol
	if p.MaxMedianQErr > 0 && mg.fb.len() >= p.MinFeedback && mg.fb.quantile(0.50) > p.MaxMedianQErr {
		return true
	}
	if p.MaxColumnDrift > 0 && mg.pending >= p.MinAppended && mg.maxDrift() > p.MaxColumnDrift {
		return true
	}
	return false
}

// nudge wakes the worker without blocking; a pending nudge is enough.
func (s *Supervisor) nudge() {
	select {
	case s.poke <- struct{}{}:
	default:
	}
}

// maxDrift returns the largest per-column total-variation distance between
// the trained snapshot's distribution and the appended rows projected onto
// the snapshot dictionary: 0 means identical, 1 means disjoint support.
func (mg *managed) maxDrift() float64 {
	if mg.pending == 0 || mg.snap == nil {
		return 0
	}
	inv := 1 / float64(mg.pending)
	var worst float64
	for ci := range mg.snap {
		var tv float64
		for code, p := range mg.snap[ci] {
			d := p - mg.pend[ci][code]*inv
			if d < 0 {
				d = -d
			}
			tv += d
		}
		if tv /= 2; tv > worst {
			worst = tv
		}
	}
	return worst
}

// snapshotHists computes every column's normalized code histogram — the
// trained snapshot the data drift signal compares appended rows against.
func snapshotHists(t *relation.Table) [][]float64 {
	out := make([][]float64, t.NumCols())
	for ci := range out {
		out[ci] = t.CodeHist(ci)
	}
	return out
}

// emptyCounts allocates zeroed per-column count vectors over t's dictionaries.
func emptyCounts(t *relation.Table) [][]float64 {
	out := make([][]float64, t.NumCols())
	for ci, c := range t.Cols {
		out[ci] = make([]float64, c.NumDistinct())
	}
	return out
}

// fbRec is one feedback observation: the raw expression (re-resolved against
// the grown table at retrain time), the observed cardinality, and the q-error
// the serving generation produced when it was recorded.
type fbRec struct {
	expr string
	card int64
	qerr float64
}

// fbWindow is a fixed-capacity ring of feedback observations.
type fbWindow struct {
	buf  []fbRec
	next int
	full bool
}

func newFBWindow(capacity int) *fbWindow { return &fbWindow{buf: make([]fbRec, capacity)} }

func (w *fbWindow) add(r fbRec) {
	w.buf[w.next] = r
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

func (w *fbWindow) len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

func (w *fbWindow) reset() {
	w.next = 0
	w.full = false
}

// records returns the window's observations, oldest first.
func (w *fbWindow) records() []fbRec {
	n := w.len()
	out := make([]fbRec, 0, n)
	if w.full {
		out = append(out, w.buf[w.next:]...)
	}
	out = append(out, w.buf[:w.next]...)
	return out
}

// quantile returns the q-quantile of the window's q-errors (nearest-rank on
// the sorted sample), 0 for an empty window.
func (w *fbWindow) quantile(q float64) float64 {
	n := w.len()
	if n == 0 {
		return 0
	}
	qs := make([]float64, 0, n)
	for _, r := range w.records() {
		qs = append(qs, r.qerr)
	}
	sort.Float64s(qs)
	i := int(q * float64(n-1))
	return qs[i]
}
