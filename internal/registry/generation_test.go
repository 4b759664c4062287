package registry

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/core"
	"duet/internal/relation"
	"duet/internal/workload"
)

// growBelow appends to tb one row whose every value sits below the column's
// smallest, so each dictionary gains a new first entry and every existing
// code shifts up by one: the lifecycle case where codes routed on one
// generation's dictionaries mean something else to the next generation.
func growBelow(t *testing.T, tb *relation.Table) *relation.Table {
	t.Helper()
	row := make([]string, tb.NumCols())
	for ci, c := range tb.Cols {
		row[ci] = strconv.FormatInt(c.Ints[0]-1, 10)
	}
	grown, err := relation.AppendRows(tb, [][]string{row})
	if err != nil {
		t.Fatal(err)
	}
	return grown
}

// TestQueryConcurrentGrowingSwaps: while SwapModel alternates two
// generations whose dictionaries differ, every routed answer must be one
// generation's model applied to the codes routed on that same generation's
// table. An answer computed by one generation's model on the other's codes
// is a silent wrong answer; the test counts them and fails on any.
func TestQueryConcurrentGrowingSwaps(t *testing.T) {
	ta := testTable("alpha", 1)
	grown := growBelow(t, ta)
	m1, m2 := trainedModel(ta, 11), trainedModel(grown, 12)
	const expr = "a<=5"
	q1, err := workload.ParseQuery(ta, expr)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.ParseQuery(grown, expr)
	if err != nil {
		t.Fatal(err)
	}
	// The four answers, computed before either model serves: each model on
	// its own generation's codes (right) and on the other's (mixed).
	right1 := m1.EstimateCardBatch([]workload.Query{q1})[0]
	mixed1 := m1.EstimateCardBatch([]workload.Query{q2})[0]
	right2 := m2.EstimateCardBatch([]workload.Query{q2})[0]
	mixed2 := m2.EstimateCardBatch([]workload.Query{q1})[0]
	if q1.Preds[0].Code == q2.Preds[0].Code || right1 == mixed1 || right2 == mixed2 ||
		mixed1 == right2 || mixed2 == right1 {
		t.Fatalf("fixture degenerate: codes %d/%d, answers %v %v %v %v",
			q1.Preds[0].Code, q2.Preds[0].Code, right1, mixed1, right2, mixed2)
	}

	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, m1, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	var (
		stop                   atomic.Bool
		answers, mixed, others atomic.Int64
		wg                     sync.WaitGroup
		errCh                  = make(chan error, 2)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, got, err := estimateExpr(context.Background(), reg, "alpha", expr)
				if err != nil {
					errCh <- err
					return
				}
				answers.Add(1)
				switch got {
				case right1, right2:
				case mixed1, mixed2:
					mixed.Add(1)
				default:
					others.Add(1)
				}
			}
		}()
	}
	swaps := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); swaps++ {
		m := m2
		if swaps%2 == 1 {
			m = m1
		}
		if err := reg.SwapModel("alpha", m, SwapOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	t.Logf("%d swaps, %d answers, %d mixed, %d neither", swaps, answers.Load(), mixed.Load(), others.Load())
	if answers.Load() == 0 {
		t.Fatal("no traffic served")
	}
	if mixed.Load() != 0 || others.Load() != 0 {
		t.Fatalf("%d of %d answers mixed one generation's model with the other's codes, %d matched neither",
			mixed.Load(), answers.Load(), others.Load())
	}
}

// TestSwapConcurrentViewAndBase swaps a sampled join-graph view and one of
// its base tables concurrently while subset joins route across them. Under
// -race it fails if a base-table swap writes routing state the view's swap
// (or a route) reads; every subset anchor must be the exact join size over
// one of the two base generations.
func TestSwapConcurrentViewAndBase(t *testing.T) {
	a, b, c, d := chain4Base()
	s, err := relation.NewJoinSampler(chain4Graph(a, b, c, d), 31)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 256
	view, err := s.SampleTable("abcd", budget)
	if err != nil {
		t.Fatal(err)
	}
	// b grows by re-appending its own first rows: the duplicated keys change
	// the b-c join size, so each anchor tells which generation it saw.
	rows := make([][]string, 60)
	for r := range rows {
		rows[r] = make([]string, b.NumCols())
		for ci, col := range b.Cols {
			rows[r][ci] = col.ValueString(col.Codes.At(r))
		}
	}
	grown, err := relation.AppendRows(b, rows)
	if err != nil {
		t.Fatal(err)
	}
	subDP := func(bt *relation.Table) float64 {
		n, err := relation.MultiJoinCardinality(&relation.JoinGraph{
			Tables: []*relation.Table{bt, c},
			Edges:  []relation.JoinEdge{{LeftTable: "b", LeftCol: "bk", RightTable: "c", RightCol: "bk"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(n)
	}
	want := map[float64]bool{subDP(b): true, subDP(grown): true}
	if len(want) != 2 {
		t.Fatal("fixture degenerate: the grown base keeps the join size")
	}

	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	addChainBases(t, reg, a, b, c, d)
	if err := reg.Add("abcd", view, core.NewModel(view, smallConfig(70)), AddOpts{Graph: chain4Spec(budget)}); err != nil {
		t.Fatal(err)
	}
	views := []*core.Model{core.NewModel(view, smallConfig(71)), core.NewModel(view, smallConfig(72))}
	bases := []*core.Model{core.NewModel(grown, smallConfig(61)), core.NewModel(b, smallConfig(62))}
	const rounds = 30
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	swap := func(name string, ms []*core.Model) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := reg.SwapModel(name, ms[i%len(ms)], SwapOpts{}); err != nil {
				errCh <- err
				return
			}
		}
	}
	wg.Add(2)
	go swap("abcd", views)
	go swap("b", bases)
	var stop atomic.Bool
	routed := make(chan error, 1)
	go func() {
		for !stop.Load() {
			res, err := reg.Resolve("", "b.bk = c.bk")
			if err != nil {
				routed <- err
				return
			}
			if !want[res.Exact] {
				routed <- fmt.Errorf("subset anchor %v is neither base generation's join size %v", res.Exact, want)
				return
			}
		}
		routed <- nil
	}()
	wg.Wait()
	stop.Store(true)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := <-routed; err != nil {
		t.Fatal(err)
	}
	// rounds is even: b ends on its original table.
	res, err := reg.Resolve("", "b.bk = c.bk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact != subDP(b) {
		t.Fatalf("subset anchor after the swaps %v, want %v", res.Exact, subDP(b))
	}
}

// TestGraphViewFindsBasesRegisteredAfterIt: a materialized graph view
// registered before its base tables answers subset joins once they are
// registered; base tables are looked up when a query routes, not bound when
// the view is added.
func TestGraphViewFindsBasesRegisteredAfterIt(t *testing.T) {
	a, b, c, d := chain4Base()
	view, err := relation.MultiJoin("abcd", chain4Graph(a, b, c, d))
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("abcd", view, core.NewModel(view, smallConfig(70)), AddOpts{Graph: chain4Spec(0)}); err != nil {
		t.Fatal(err)
	}
	addChainBases(t, reg, a, b, c, d)
	want, err := relation.MultiJoinCardinality(&relation.JoinGraph{
		Tables: []*relation.Table{b, c},
		Edges:  []relation.JoinEdge{{LeftTable: "b", LeftCol: "bk", RightTable: "c", RightCol: "bk"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := estimateExpr(context.Background(), reg, "", "b.bk = c.bk")
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(want) {
		t.Fatalf("subset join size %v, want %d", got, want)
	}
}

// TestPinnedGenerationOutlivesSwap: a resolution pinned on generation N is
// answered by N while a SwapModel to N+1 is in flight, and that swap returns
// only after the pin is released. New routes land on N+1 meanwhile.
func TestPinnedGenerationOutlivesSwap(t *testing.T) {
	ta := testTable("alpha", 1)
	grown := growBelow(t, ta)
	m1, m2 := trainedModel(ta, 11), trainedModel(grown, 12)
	const expr = "a<=5"
	q1, err := workload.ParseQuery(ta, expr)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.ParseQuery(grown, expr)
	if err != nil {
		t.Fatal(err)
	}
	want1 := m1.EstimateCardBatch([]workload.Query{q1})[0]
	want2 := m2.EstimateCardBatch([]workload.Query{q2})[0]

	ctx := context.Background()
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, m1, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	res, err := reg.resolve("alpha", expr)
	if err != nil {
		t.Fatal(err)
	}
	if res.gen == nil || res.gen.table != ta || res.Query.Preds[0] != q1.Preds[0] {
		t.Fatalf("resolution not pinned on generation N: %+v", res)
	}
	swapped := make(chan error, 1)
	go func() { swapped <- reg.SwapModel("alpha", m2, SwapOpts{}) }()
	// Once N+1 is published the swap is draining N, held by the pin.
	for {
		reg.mu.RLock()
		published := reg.entries["alpha"].gen != res.gen
		reg.mu.RUnlock()
		if published {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-swapped:
		t.Fatalf("swap returned (%v) while generation N was pinned", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, got, err := estimateExpr(ctx, reg, "alpha", expr); err != nil || got != want2 {
		t.Fatalf("new route during the drain answered %v (%v), want generation N+1's %v", got, err, want2)
	}
	cards, err := reg.estimateResolutions(ctx, []Resolution{res})
	if err != nil {
		t.Fatal(err)
	}
	if cards[0] != want1 {
		t.Fatalf("pinned resolution answered %v, want generation N's %v", cards[0], want1)
	}
	select {
	case err := <-swapped:
		t.Fatalf("swap returned (%v) before the pin was released", err)
	default:
	}
	res.gen.release()
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
}
