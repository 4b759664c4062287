// Package artifact owns the on-disk layout of a model directory — the only
// code that knows it. A model's seed weights live at <dir>/<name>.duet; every
// generation a retrain or a cluster pull installs is <dir>/<name>.v<N>.duet,
// N counting up from 1, and the current generation is simply the highest N
// present. Each file is the container core.Model.Save writes (magic
// DUETMOD1, a checksum on every section). Every write goes through
// container.WriteFile, a temporary file in the target's directory
// (<target>.tmp*) and a rename, so a reader — the registry's watcher, a
// restart, a peer's pull — sees the previous bytes or the new ones, never a
// short file.
package artifact

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"duet/internal/container"
	"duet/internal/core"
	"duet/internal/relation"
)

const ext = ".duet"

// Dir is a model directory.
type Dir string

// Path is where name's seed (unversioned) weights live.
func (d Dir) Path(name string) string { return filepath.Join(string(d), name+ext) }

// VersionPath is where generation v of name lives.
func (d Dir) VersionPath(name string, v int) string {
	return filepath.Join(string(d), fmt.Sprintf("%s.v%d%s", name, v, ext))
}

// VersionOf inverts VersionPath: ".../orders.v7.duet" is generation 7. Any
// other path, seed files included, is generation 0.
func VersionOf(path string) int {
	stem, ok := strings.CutSuffix(filepath.Base(path), ext)
	i := strings.LastIndex(stem, ".v")
	if !ok || i < 0 {
		return 0
	}
	v, err := strconv.Atoi(stem[i+2:])
	if err != nil || v < 0 {
		return 0
	}
	return v
}

// Versions lists name's retained generations in ascending numeric order. A
// directory that does not exist yet holds none.
func (d Dir) Versions(name string) ([]int, error) {
	entries, err := os.ReadDir(string(d))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var vs []int
	for _, e := range entries {
		// Round-tripping through VersionPath rejects temporaries, another
		// model's files ("a.b.v1.duet" is not a generation of "a") and
		// non-canonical numbers in one comparison.
		if v := VersionOf(e.Name()); v > 0 && e.Name() == filepath.Base(d.VersionPath(name, v)) {
			vs = append(vs, v)
		}
	}
	sort.Ints(vs)
	return vs, nil
}

// Latest returns name's newest retained generation and its path, or (0, "")
// when there is none.
func (d Dir) Latest(name string) (int, string) {
	vs, _ := d.Versions(name)
	if len(vs) == 0 {
		return 0, ""
	}
	v := vs[len(vs)-1]
	return v, d.VersionPath(name, v)
}

// Prune removes all but the newest keep generations of name; keep <= 0 keeps
// everything.
func (d Dir) Prune(name string, keep int) {
	vs, _ := d.Versions(name)
	for i := 0; keep > 0 && i < len(vs)-keep; i++ {
		os.Remove(d.VersionPath(name, vs[i]))
	}
}

// Put writes generation v of name atomically and returns its path. A
// non-nil check sees the finished temporary file before it replaces the
// generation; if check fails, the generation keeps what it held, so bytes
// from outside that do not load never destroy a copy being served.
func (d Dir) Put(name string, v int, write func(io.Writer) error, check func(tmp string) error) (string, error) {
	path := d.VersionPath(name, v)
	return path, container.WriteFile(path, write, check)
}

// WriteFile replaces path with what write produces, creating parent
// directories as needed. If write, the close or the rename fails, path keeps
// its previous content and no temporary is left behind.
func WriteFile(path string, write func(io.Writer) error) error {
	return container.WriteFile(path, write, nil)
}

// Save writes a model's weights to path atomically.
func Save(path string, m *core.Model) error { return WriteFile(path, m.Save) }

// Sig is a file's size and modification time: what the registry's watcher
// compares to tell a changed model file from the one it loaded.
type Sig struct {
	Size    int64
	ModTime time.Time
}

// Equal reports whether two signatures describe the same file state.
func (a Sig) Equal(b Sig) bool { return a.Size == b.Size && a.ModTime.Equal(b.ModTime) }

// Stat reads path's signature.
func Stat(path string) (Sig, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return Sig{}, err
	}
	return Sig{fi.Size(), fi.ModTime()}, nil
}

// Load reads the model at path, validated against t (core.Load checks the
// table's NDV profile), with the signature of the file it read.
func Load(path string, t *relation.Table) (*core.Model, Sig, error) {
	// The signature is the opened file's, so it describes the bytes read
	// even when a rename replaces path meanwhile.
	f, err := os.Open(path)
	if err != nil {
		return nil, Sig{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, Sig{}, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, Sig{}, fmt.Errorf("load %s: %w", path, err)
	}
	m, err := core.Load(data, t)
	if err != nil {
		return nil, Sig{}, fmt.Errorf("load %s: %w", path, err)
	}
	return m, Sig{fi.Size(), fi.ModTime()}, nil
}
