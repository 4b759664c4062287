package colstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"duet/internal/container"
	"duet/internal/relation"
)

// testTable builds a table exercising every kind and two code widths: a
// low-NDV string column (uint8 codes), int and float columns, and a high-NDV
// int column that needs uint16 codes.
func testTable(tb testing.TB, rows int) *relation.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	wide := make([]int64, rows)
	for i := range ints {
		ints[i] = int64(rng.Intn(40) - 20)
		floats[i] = math.Round(rng.NormFloat64()*100) / 4
		strs[i] = fmt.Sprintf("cat-%02d", rng.Intn(9))
		wide[i] = int64(rng.Intn(1000))
	}
	return relation.NewTable("t", []*relation.Column{
		relation.NewIntColumn("a", ints),
		relation.NewFloatColumn("b", floats),
		relation.NewStringColumn("c", strs),
		relation.NewIntColumn("wide", wide),
	})
}

// sameTable compares name, kinds, dictionaries, every code, and CodeHist.
func sameTable(t *testing.T, want, got *relation.Table) {
	t.Helper()
	if got.Name != want.Name || got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		t.Fatalf("shape mismatch: got %s, want %s", got.Stats(), want.Stats())
	}
	for ci := range want.Cols {
		wc, gc := want.Cols[ci], got.Cols[ci]
		if gc.Name != wc.Name || gc.Kind != wc.Kind || gc.NumDistinct() != wc.NumDistinct() {
			t.Fatalf("col %d header mismatch: %q/%v/%d vs %q/%v/%d",
				ci, gc.Name, gc.Kind, gc.NumDistinct(), wc.Name, wc.Kind, wc.NumDistinct())
		}
		for v := 0; v < wc.NumDistinct(); v++ {
			if gc.ValueString(int32(v)) != wc.ValueString(int32(v)) {
				t.Fatalf("col %q dict[%d]: got %q, want %q", wc.Name, v, gc.ValueString(int32(v)), wc.ValueString(int32(v)))
			}
		}
		for r := 0; r < wc.NumRows(); r++ {
			if gc.Codes.At(r) != wc.Codes.At(r) {
				t.Fatalf("col %q code[%d]: got %d, want %d", wc.Name, r, gc.Codes.At(r), wc.Codes.At(r))
			}
		}
		wh, gh := want.CodeHist(ci), got.CodeHist(ci)
		for v := range wh {
			if wh[v] != gh[v] {
				t.Fatalf("col %q hist[%d]: got %g, want %g", wc.Name, v, gh[v], wh[v])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tbl := testTable(t, 5000)
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := Write(path, tbl); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sameTable(t, tbl, s.Table)
	// The wide column crosses the uint8 boundary; make sure the width-minimal
	// choice actually varied across columns.
	if w := codeWidth(tbl.Cols[2].NumDistinct()); w != 1 {
		t.Fatalf("string column should pack to 1-byte codes, got %d", w)
	}
	if w := codeWidth(tbl.Cols[3].NumDistinct()); w != 2 {
		t.Fatalf("wide column should pack to 2-byte codes, got %d", w)
	}
}

func TestMappedMatchesFallback(t *testing.T) {
	tbl := testTable(t, 3000)
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := Write(path, tbl); err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	t.Setenv(NoMmapEnv, "1")
	fallback, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fallback.Close()
	if fallback.Mapped() {
		t.Fatal("DUET_NO_MMAP=1 still produced a mapping")
	}
	sameTable(t, mapped.Table, fallback.Table)
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := testTable(t, 2000)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteCSV(f, tbl); err != nil {
		t.Fatal(err)
	}
	f.Close()
	in, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := relation.LoadCSV(in, "t", true)
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	colPath := filepath.Join(dir, "t.duetcol")
	if err := Write(colPath, loaded); err != nil {
		t.Fatal(err)
	}
	s, err := Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sameTable(t, loaded, s.Table)
}

func TestTruncatedRejected(t *testing.T) {
	tbl := testTable(t, 1000)
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := Write(path, tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range truncations(data) {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Fatalf("opened a file truncated to %d bytes", cut)
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "too short") {
			t.Fatalf("truncation to %d bytes: error %q names neither truncation nor shortness", cut, err)
		}
	}
}

func TestCorruptHeaderRejected(t *testing.T) {
	tbl := testTable(t, 1000)
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := Write(path, tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerFlip] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("opened a file with a corrupted header")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption error %q does not mention the checksum", err)
	}
}

func TestCorruptMetadataRejected(t *testing.T) {
	tbl := testTable(t, 500)
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := Write(path, tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-metaFlip] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("opened a file with corrupted metadata")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption error %q does not mention the checksum", err)
	}
}

// truncations are the lengths TestTruncatedRejected cuts a file of data to:
// into the metadata, mid-file, just past the 64-byte header, and into it.
func truncations(data []byte) []int { return []int{len(data) - 1, len(data) / 2, 64 + 3, 10} }

const (
	headerFlip = 33 // a byte of the header's record of the metadata's CRC
	metaFlip   = 2  // from the end: inside the trailing JSON metadata
)

// TestOpenRefusesAnyFlippedByte: every byte of a .duetcol file is covered
// by a checksum or must be zero, so flipping any one of them (in the
// header, the padding, a code, dictionary, string or histogram section, or
// the metadata) is an error when the file is opened.
func TestOpenRefusesAnyFlippedByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := Write(path, testTable(t, 40)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path); err == nil {
			s.Close()
			t.Fatalf("opened the file with byte %d of %d flipped", i, len(data))
		}
		data[i] ^= 0x20
	}
}

// noColumns is a well-formed .duetcol file of a table with no columns,
// which no relation.Table can be.
func noColumns(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := container.Encode(&buf, Magic, fileMeta{Table: "t"}, nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenRefusesNoColumns: a file whose checksums hold but whose table has
// no columns is an error, not a panic in relation.NewTable.
func TestOpenRefusesNoColumns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.duetcol")
	if err := os.WriteFile(path, noColumns(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path); err == nil {
		s.Close()
		t.Fatal("opened a table with no columns")
	}
}

// oneColumn is a file with valid checksums holding one int column of three
// distinct values whose codes are codes.
func oneColumn(tb testing.TB, codes []uint8) []byte {
	return columnFile(tb, relation.KindInt, codes, raw([]int64{10, 20, 30}), nil)
}

// columnFile is a file with valid checksums holding one column of the given
// kind and three dictionary entries, its sections' bytes as given (strs only
// for a string column).
func columnFile(tb testing.TB, kind relation.Kind, codes, dict, strs []byte) []byte {
	meta := fileMeta{Table: "t", Rows: len(codes), Cols: []colMeta{{Name: "a", Kind: uint8(kind), NDV: 3}}}
	secs := []container.Section{
		{Name: sectionName(0, "codes"), Data: codes},
		{Name: sectionName(0, "dict"), Data: dict},
		{Name: sectionName(0, "hist"), Data: raw([]float64{1, 1, 2})},
	}
	if strs != nil {
		secs = append(secs, container.Section{Name: sectionName(0, "strs"), Data: strs})
	}
	var buf bytes.Buffer
	if err := container.Encode(&buf, Magic, meta, secs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// unsortedInts and repeatedStrings are files with valid checksums whose
// dictionaries are not strictly ascending: ints [3 1 2], strings [a b b].
func unsortedInts(tb testing.TB) []byte {
	return columnFile(tb, relation.KindInt, []uint8{0, 1, 2}, raw([]int64{3, 1, 2}), nil)
}

func repeatedStrings(tb testing.TB) []byte {
	return columnFile(tb, relation.KindString, []uint8{0, 1, 2}, raw([]uint32{0, 1, 2, 3}), []byte("abb"))
}

// TestOpenRefusesUnsortedDictionary: a file whose checksums hold but whose
// dictionary is not strictly ascending is an error at Open, since every
// lookup, join-key merge and append over it would be silently wrong; the
// same columns with ascending dictionaries open.
func TestOpenRefusesUnsortedDictionary(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"ints [3 1 2]", unsortedInts(t), false},
		{"strings [a b b]", repeatedStrings(t), false},
		{"floats [NaN 1 2]", columnFile(t, relation.KindFloat, []uint8{0, 1, 2}, raw([]float64{math.NaN(), 1, 2}), nil), true},
		{"floats [1 NaN 2]", columnFile(t, relation.KindFloat, []uint8{0, 1, 2}, raw([]float64{1, math.NaN(), 2}), nil), false},
		{"strings [a b c]", columnFile(t, relation.KindString, []uint8{0, 1, 2}, raw([]uint32{0, 1, 2, 3}), []byte("abc")), true},
	} {
		path := filepath.Join(dir, "t.duetcol")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
		}
		if (err == nil) != c.ok {
			t.Fatalf("%s: Open returned %v", c.name, err)
		}
	}
}

// TestOpenRefusesCodeAtNDV: a file whose checksums hold but one of whose
// codes equals its column's NDV is an error at Open, not an index out of
// range in the first reader of that row; the same file with every code in
// range opens.
func TestOpenRefusesCodeAtNDV(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		codes []uint8
		ok    bool
	}{{[]uint8{0, 1, 2, 2}, true}, {[]uint8{0, 1, 3, 2}, false}} {
		path := filepath.Join(dir, "t.duetcol")
		if err := os.WriteFile(path, oneColumn(t, c.codes), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
		}
		if (err == nil) != c.ok {
			t.Fatalf("codes %v over 3 distinct values: Open returned %v", c.codes, err)
		}
	}
}

// TestWriteFailureLeavesNoTemporary: a Write whose rename fails (the target
// is a directory) returns the error and leaves no temporary file behind.
func TestWriteFailureLeavesNoTemporary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.duetcol")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, testTable(t, 100)); err == nil {
		t.Fatal("wrote over a directory")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
		t.Fatalf("a failed Write left %v behind", tmps)
	}
}

// FuzzOpen: any bytes give a table or an error, never a panic, and decoding
// allocates O(the input). The seeds are a written table, each corrupt case
// the tests above refuse and the table with no columns.
func FuzzOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.duetcol")
	if err := Write(path, testTable(f, 300)); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, cut := range truncations(data) {
		f.Add(data[:cut])
	}
	for _, i := range []int{headerFlip, len(data) - metaFlip} {
		flipped := slices.Clone(data)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
	f.Add(noColumns(f))
	f.Add(oneColumn(f, []uint8{0, 1, 3, 2}))
	f.Add(unsortedInts(f))
	f.Add(repeatedStrings(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(data)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+1<<20; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d (err %v)", len(data), alloc, limit, err)
		}
	})
}
