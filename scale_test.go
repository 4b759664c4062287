package duet_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"duet"
	"duet/internal/core"
	"duet/internal/relation"
)

// scaleValueCols is the number of u8-coded value columns beside the u16-coded
// join key: a 21-byte packed row against 80 bytes of int32 codes. The
// sampler's join indexes cost O(rows) on both sides whatever the width, so 11
// columns land at ~2.97x RSS at 2M rows and 19 give the 3x bound real margin.
const scaleValueCols = 19

// scaleTables synthesizes the deterministic dataset: a fact table with a join
// key over [0, nDim) and scaleValueCols value columns of NDV 8..128, all from
// one fixed xorshift stream, and a dimension table with one row per key. nDim
// stays within uint16 so the packed key codes are 2 bytes at any size.
func scaleTables(rows int) (fact, dim *relation.Table) {
	nDim := min(max(rows/32, 256), 1<<16)
	x := uint64(0x9e3779b97f4a7c15)
	draw := func(mod uint64) []int64 {
		vals := make([]int64, rows)
		for i := range vals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			vals[i] = int64(x % mod)
		}
		return vals
	}
	cols := []*relation.Column{relation.NewIntColumn("k", draw(uint64(nDim)))}
	for c := 0; c < scaleValueCols; c++ {
		cols = append(cols, relation.NewIntColumn(fmt.Sprintf("v%d", c), draw(8<<(c%5))))
	}
	key, dv := make([]int64, nDim), make([]int64, nDim)
	for i := range key {
		key[i], dv[i] = int64(i), int64(i%64)
	}
	return relation.NewTable("sfact", cols), relation.NewTable("sdim",
		[]*relation.Column{relation.NewIntColumn("k", key), relation.NewIntColumn("dv", dv)})
}

// tableSource streams a table's rows in order, wrapping, so neither side pays
// the full-table permutation in-place training shuffles with.
type tableSource struct {
	t       *relation.Table
	pos     int
	scratch []int32
}

func (ts *tableSource) DrawTuples(dst [][]int32) {
	n := ts.t.NumRows()
	for k := 0; k < len(dst); {
		run := min(len(dst)-k, n-ts.pos)
		for c, col := range ts.t.Cols {
			ts.scratch = col.Codes.AppendTo(ts.scratch[:0], ts.pos, ts.pos+run)
			for i, code := range ts.scratch {
				dst[k+i][c] = code
			}
		}
		ts.pos = (ts.pos + run) % n
		k += run
	}
}

// scalePhase is what both sides run, in this order: the sampled join build
// (key-column pages + CSR scratch, freed before training so the two footprints
// don't stack), then one streamed data-only epoch over the value columns (a
// high-NDV key would blow up the softmax without informing any selectivity).
// It returns sampled join tuples/s and training tuples/s.
func scalePhase(t *testing.T, fact, dim *relation.Table, budget int) (joinTPS, trainTPS float64) {
	start := time.Now()
	smp, err := duet.NewJoinSampler([]*duet.Table{fact, dim},
		[]duet.JoinEdge{{LeftTable: "sfact", LeftCol: "k", RightTable: "sdim", RightCol: "k"}}, 17)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := smp.SampleTable("scale_join", budget)
	if err != nil {
		t.Fatal(err)
	}
	joinTPS = float64(sampled.NumRows()) / time.Since(start).Seconds()
	smp, sampled = nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	values := relation.NewTable(fact.Name, fact.Cols[1:])
	cfg := duet.DefaultConfig()
	cfg.Hidden, cfg.Encoding, cfg.EmbedDim = []int{32, 32}, core.EncEmbed, 8
	tc := duet.DefaultTrainConfig()
	tc.Epochs, tc.BatchSize, tc.Lambda, tc.Mu = 1, 512, 0, 1
	tc.Source, tc.SourceRows = &tableSource{t: values}, values.NumRows()
	return joinTPS, duet.Train(duet.New(values, cfg), tc)[0].TuplesPerSec
}

// peakRSS reads VmHWM from /proc/self/status; 0 where unavailable.
func peakRSS() int64 {
	data, _ := os.ReadFile("/proc/self/status")
	_, rest, _ := strings.Cut(string(data), "VmHWM:")
	var kb int64
	fmt.Sscan(rest, &kb)
	return kb << 10
}

// phasePeak runs fn with a freshly reset RSS watermark (Linux: "5" to
// /proc/self/clear_refs) and returns the peak resident growth it caused, 0
// where there is no watermark. GC + FreeOSMemory first returns earlier phases'
// spans, so the growth is fn's alone; GOGC 30 during fn keeps the heap near
// the live set, so it reflects the data footprint rather than GC headroom —
// identically on both sides, which is what makes the ratio mean something.
func phasePeak(fn func()) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(30))
	runtime.GC()
	debug.FreeOSMemory()
	ok := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) == nil
	base := peakRSS()
	fn()
	if !ok || base == 0 {
		return 0
	}
	return max(peakRSS()-base, 0)
}

// TestScaleStore holds the columnar store to its beyond-RAM claim at a size
// where the difference is memory tiering rather than noise: the same fact +
// dim dataset goes through a .duetcol file (mmap on unix, read fallback under
// DUET_NO_MMAP=1) and through the in-memory int32-code tables, and the mapped
// side must keep up while staying small. Every bound is a ratio or budget
// within this one run. Minutes at 2M rows, so it runs only when
// DUET_SCALE_ROWS names the fact-table size (CI's scale-smoke job, make scale).
func TestScaleStore(t *testing.T) {
	rows, _ := strconv.Atoi(os.Getenv("DUET_SCALE_ROWS"))
	if rows <= 0 {
		t.Skip("set DUET_SCALE_ROWS (e.g. 2000000) to run the columnar-store scale check")
	}
	budget := max(rows/40, 1000)
	dir := t.TempDir()
	factPath, dimPath := filepath.Join(dir, "fact.duetcol"), filepath.Join(dir, "dim.duetcol")
	fact, dim := scaleTables(rows)
	if err := errors.Join(duet.PackTable(factPath, fact), duet.PackTable(dimPath, dim)); err != nil {
		t.Fatal(err)
	}
	fact, dim = nil, nil
	open := func(path string) *duet.ColStore {
		st, err := duet.OpenColumnar(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	var mapped bool
	var mJoin, mTrain, iJoin, iTrain float64
	mappedRSS := phasePeak(func() {
		factSt, dimSt := open(factPath), open(dimPath)
		defer factSt.Close()
		defer dimSt.Close()
		mapped = factSt.Mapped()
		mJoin, mTrain = scalePhase(t, factSt.Table, dimSt.Table, budget)
	})
	// Building the tables in the heap is part of the phase: that is the load
	// cost the in-memory path always pays.
	inMemRSS := phasePeak(func() {
		fact, dim := scaleTables(rows)
		iJoin, iTrain = scalePhase(t, fact, dim, budget)
	})
	mMB, iMB := float64(mappedRSS)/1e6, float64(inMemRSS)/1e6
	t.Logf("rows=%d mapped=%v, tuples/s mapped vs in-mem: train %.0f vs %.0f, join %.0f vs %.0f (budget %d)",
		rows, mapped, mTrain, iTrain, mJoin, iJoin, budget)
	t.Logf("peak RSS growth: mapped %.1f MB, in-mem %.1f MB", mMB, iMB)

	if mTrain < iTrain/1.3 {
		t.Errorf("mapped training too slow: %.2fx the in-memory time (budget 1.3x)", iTrain/mTrain)
	}
	if mJoin < iJoin/1.3 {
		t.Errorf("mapped join build too slow: %.2fx the in-memory time (budget 1.3x)", iJoin/mJoin)
	}
	if !mapped && runtime.GOOS == "linux" && os.Getenv("DUET_NO_MMAP") == "" {
		t.Error("the store did not map its file")
	}
	// The memory win shows only when the store actually mapped (the read
	// fallback loads the file into the heap, where parity is the expectation)
	// and above the runtime's fixed overheads.
	if !mapped || mappedRSS == 0 || inMemRSS == 0 || rows < 1_000_000 {
		return
	}
	if inMemRSS < 3*mappedRSS {
		t.Errorf("mapped tables lost their memory win: in-mem peak is %.2fx the mapped one (budget 3x)", iMB/mMB)
	}
	// The absolute budget CI has held at 2M rows: 20 int32 columns x 2M rows
	// plus training must not fit in what the mapped side stays under.
	if rows == 2_000_000 && !(mMB < 320 && iMB > 320) {
		t.Errorf("2M-row budget: want mapped < 320 MB < in-mem, got %.1f / %.1f", mMB, iMB)
	}
}
