package artifact

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"duet/internal/core"
	"duet/internal/relation"
)

func testTable() *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "alpha", Rows: 200, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 20, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 8, Skew: 1.5, Parent: 0, Noise: 0.2},
		},
	})
}

func testModel(t *relation.Table) *core.Model {
	c := core.DefaultConfig()
	c.Hidden = []int{16, 16}
	c.EmbedDim = 8
	return core.NewModel(t, c)
}

// touch creates empty files, standing in for artifacts where only names matter.
func touch(t *testing.T, dir Dir, names ...string) {
	t.Helper()
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(string(dir), n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func dirNames(t *testing.T, dir Dir) []string {
	t.Helper()
	entries, err := os.ReadDir(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileIsAtomic: a writer that fails midway leaves the previous file
// byte-identical and no temporary behind.
func TestWriteFileIsAtomic(t *testing.T) {
	dir := Dir(t.TempDir())
	path := dir.Path("alpha")
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write([]byte("generation one")); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("gener"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "generation one" {
		t.Fatalf("failed write changed the file: %q", got)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"alpha.duet"}) {
		t.Fatalf("failed write left files behind: %v", names)
	}
}

// TestPutCheckKeepsGeneration: a Put whose check refuses the written bytes
// leaves the generation byte-identical and no temporary behind; the check
// sees the finished file.
func TestPutCheckKeepsGeneration(t *testing.T) {
	dir := Dir(t.TempDir())
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write([]byte(s)); return err }
	}
	if _, err := dir.Put("alpha", 2, write("served"), nil); err != nil {
		t.Fatal(err)
	}
	refused := errors.New("does not load")
	_, err := dir.Put("alpha", 2, write("garbage"), func(tmp string) error {
		if got, _ := os.ReadFile(tmp); string(got) != "garbage" {
			t.Errorf("check saw %q, want the written bytes", got)
		}
		return refused
	})
	if !errors.Is(err, refused) {
		t.Fatalf("Put = %v, want the check's error", err)
	}
	if got, _ := os.ReadFile(dir.VersionPath("alpha", 2)); string(got) != "served" {
		t.Fatalf("a refused Put changed the generation: %q", got)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"alpha.v2.duet"}) {
		t.Fatalf("a refused Put left files behind: %v", names)
	}
}

func TestVersionsLatestVersionOf(t *testing.T) {
	missing := Dir(filepath.Join(t.TempDir(), "not-created-yet"))
	if vs, err := missing.Versions("a"); err != nil || len(vs) != 0 {
		t.Fatalf("missing directory: %v, %v", vs, err)
	}
	if v, path := missing.Latest("a"); v != 0 || path != "" {
		t.Fatalf("Latest on a missing directory = (%d, %q)", v, path)
	}
	dir := Dir(t.TempDir())
	if v, path := dir.Latest("a"); v != 0 || path != "" {
		t.Fatalf("Latest on an empty directory = (%d, %q)", v, path)
	}

	touch(t, dir, "a.duet", "a.v10.duet", "a.v2.duet", "a.v9.duet",
		"a.vX.duet", "a.v3.duet.tmp123", "a.v03.duet", "othera.v1.duet", "a.b.v4.duet", "a.v1.v5.duet")
	if vs, err := dir.Versions("a"); err != nil || !slices.Equal(vs, []int{2, 9, 10}) {
		t.Fatalf(`Versions("a") = %v, %v; want [2 9 10]`, vs, err)
	}
	if vs, _ := dir.Versions("a.b"); !slices.Equal(vs, []int{4}) {
		t.Fatalf(`Versions("a.b") = %v; want [4]`, vs)
	}
	if v, path := dir.Latest("a"); v != 10 || path != dir.VersionPath("a", 10) {
		t.Fatalf("Latest = (%d, %q)", v, path)
	}
	for path, want := range map[string]int{
		dir.VersionPath("orders", 7): 7,
		dir.Path("orders"):           0,
		"/models/model.duet":         0,
		"/models/orders.vX.duet":     0,
		"/models/orders.v3.duet.tmp": 0,
		"":                           0,
	} {
		if got := VersionOf(path); got != want {
			t.Errorf("VersionOf(%q) = %d, want %d", path, got, want)
		}
	}
}

// TestPruneKeepsNewest: pruning works from the listing, so a gap in the
// numbering (a pulled generation, a manual delete) does not shelter what lies
// below it.
func TestPruneKeepsNewest(t *testing.T) {
	dir := Dir(t.TempDir())
	touch(t, dir, "a.v1.duet", "a.v3.duet", "a.v4.duet", "a.v7.duet", "b.v1.duet")
	dir.Prune("a", -1)
	if vs, _ := dir.Versions("a"); len(vs) != 4 {
		t.Fatalf("negative keep pruned: %v", vs)
	}
	dir.Prune("a", 2)
	if vs, _ := dir.Versions("a"); !slices.Equal(vs, []int{4, 7}) {
		t.Fatalf("Prune(keep=2) left %v, want [4 7]", vs)
	}
	if vs, _ := dir.Versions("b"); !slices.Equal(vs, []int{1}) {
		t.Fatalf("pruning a touched b: %v", vs)
	}
}

// TestPutLoadRoundTrip: a generation Put writes loads back, with the
// signature of the file it read.
func TestPutLoadRoundTrip(t *testing.T) {
	dir := Dir(filepath.Join(t.TempDir(), "models")) // created on first write
	tbl := testTable()
	m := testModel(tbl)
	path, err := dir.Put("alpha", 3, m.Save, nil)
	if err != nil || path != dir.VersionPath("alpha", 3) {
		t.Fatalf("Put = %q, %v", path, err)
	}
	got, sig, err := Load(path, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got.SizeBytes() != m.SizeBytes() {
		t.Fatalf("loaded %d bytes of weights, saved %d", got.SizeBytes(), m.SizeBytes())
	}
	if onDisk, err := Stat(path); err != nil || !sig.Equal(onDisk) || sig.Size == 0 {
		t.Fatalf("Load signature %+v, file %+v, %v", sig, onDisk, err)
	}
	// Save over it and read it back again; a table with another NDV profile
	// is refused.
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path, tbl); err != nil {
		t.Fatal(err)
	}
	other := relation.Generate(relation.SynConfig{Name: "alpha", Rows: 200, Seed: 1,
		Cols: []relation.ColSpec{{Name: "k", NDV: 21, Parent: -1}, {Name: "a", NDV: 8, Parent: -1}}})
	if _, _, err := Load(path, other); err == nil {
		t.Fatal("model loaded against a table with a different NDV profile")
	}
}
