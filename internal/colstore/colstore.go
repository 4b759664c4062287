// Package colstore persists relation tables in a versioned on-disk columnar
// format (".duetcol", one file per table) designed to be consumed in place.
// A .duetcol file is an internal/container file with magic "DUETCOL2": a
// checksummed 64-byte header, one checksummed 64-byte-aligned section per
// column part, and JSON metadata (fileMeta) holding the table's name, row
// count and each column's name, kind and NDV.
//
// Per column i the sections are:
//
//	"<i>.codes"  the code array at the width the NDV needs (uint8/uint16/
//	             uint32, the narrowest that fits every code)
//	"<i>.dict"   the sorted dictionary: int64/float64 values raw, or for
//	             strings a uint32 offset table of NDV+1 entries
//	"<i>.strs"   strings only: the value bytes the offset table indexes
//	"<i>.hist"   the normalized code-frequency histogram (float64 per
//	             distinct value) that drift detection consumes, so
//	             Table.CodeHist never has to scan a mapped column
//
// Every section is 64-byte aligned and little-endian, so Open reinterprets
// code arrays, numeric dictionaries and histograms in place over the raw file
// bytes — via mmap on unix (the OS page cache then does the memory tiering for
// beyond-RAM tables) or over one os.ReadFile buffer as the pure-Go fallback
// (non-unix builds, or DUET_NO_MMAP=1). Open reads every section once to
// check its CRC. Only string dictionaries are materialized as Go values on
// open.
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"unsafe"

	"duet/internal/container"
	"duet/internal/relation"
)

// Magic identifies a .duetcol file; the trailing digit is the format version.
const Magic = "DUETCOL2"

// fileMeta is the container's metadata.
type fileMeta struct {
	Table string    `json:"table"`
	Rows  int       `json:"rows"`
	Cols  []colMeta `json:"cols"`
}

// colMeta describes one column; its bytes are the sections named for its
// index (sectionName).
type colMeta struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
	NDV  int    `json:"ndv"`
}

// sectionName names part of column i's bytes.
func sectionName(i int, part string) string { return fmt.Sprintf("%d.%s", i, part) }

// codeWidth returns the narrowest per-code byte width that fits every code of
// a dictionary with the given NDV (codes range over [0, ndv)).
func codeWidth(ndv int) int {
	switch {
	case ndv <= 1<<8:
		return 1
	case ndv <= 1<<16:
		return 2
	default:
		return 4
	}
}

// Write persists t at path in .duetcol format, atomically (container.WriteFile):
// a reader never observes a torn file, and an existing mapped copy stays valid
// until its own Close.
func Write(path string, t *relation.Table) error {
	nrows := t.NumRows()
	meta := fileMeta{Table: t.Name, Rows: nrows, Cols: make([]colMeta, len(t.Cols))}
	var secs []container.Section
	add := func(i int, part string, data []byte) {
		secs = append(secs, container.Section{Name: sectionName(i, part), Data: data})
	}
	for i, c := range t.Cols {
		ndv := c.NumDistinct()
		meta.Cols[i] = colMeta{Name: c.Name, Kind: uint8(c.Kind), NDV: ndv}
		width := codeWidth(ndv)
		codes := make([]byte, nrows*width)
		writeCodes(codes, c.Codes, width)
		add(i, "codes", codes)
		switch c.Kind {
		case relation.KindInt:
			add(i, "dict", raw(c.Ints))
		case relation.KindFloat:
			add(i, "dict", raw(c.Floats))
		case relation.KindString:
			offs := make([]uint32, 0, ndv+1)
			var blob []byte
			for _, s := range c.Strs {
				offs = append(offs, uint32(len(blob)))
				blob = append(blob, s...)
			}
			add(i, "dict", raw(append(offs, uint32(len(blob)))))
			add(i, "strs", blob)
		}
		add(i, "hist", raw(t.CodeHist(i)))
	}
	return container.WriteFile(path, func(w io.Writer) error {
		return container.Encode(w, Magic, &meta, secs)
	}, nil)
}

// writeCodes encodes a CodeArray at the given width into dst.
func writeCodes(dst []byte, codes relation.CodeArray, width int) {
	n := codes.Len()
	var buf [4096]int32
	w := 0
	for lo := 0; lo < n; lo += len(buf) {
		hi := lo + len(buf)
		if hi > n {
			hi = n
		}
		for _, code := range codes.AppendTo(buf[:0], lo, hi) {
			switch width {
			case 1:
				dst[w] = byte(code)
			case 2:
				binary.LittleEndian.PutUint16(dst[2*w:], uint16(code))
			default:
				binary.LittleEndian.PutUint32(dst[4*w:], uint32(code))
			}
			w++
		}
	}
}

// Store is an opened .duetcol file. Table's numeric dictionaries, histograms
// and code arrays alias the underlying bytes (mapped or one read buffer);
// the table must not be used after Close.
type Store struct {
	Table  *relation.Table
	path   string
	mapped bool // true when the bytes are an mmap, false for the read fallback
	data   []byte
	unmap  func() error
}

// Mapped reports whether the store reads through an mmap (false means the
// pure-Go os.ReadFile fallback loaded the file into one heap buffer).
func (s *Store) Mapped() bool { return s.mapped }

// Path returns the file the store was opened from.
func (s *Store) Path() string { return s.path }

// SizeBytes returns the on-disk (and mapped) size of the store.
func (s *Store) SizeBytes() int64 { return int64(len(s.data)) }

// Close releases the mapping (or the fallback buffer). The Table and every
// column read through it become invalid; callers must ensure no reader still
// holds the table — the registry's drain-safe swap provides that.
func (s *Store) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	s.data = nil
	return u()
}

// NoMmapEnv is the environment variable that forces the pure-Go read
// fallback even where mmap is available ("1" disables mapping).
const NoMmapEnv = "DUET_NO_MMAP"

// Open reads a .duetcol file and returns a Store whose Table serves every
// relation consumer (sampler, training, registry) directly from the file
// bytes. On unix the file is mapped read-only and shared, so resident memory
// is bounded by the touched pages; elsewhere — and under DUET_NO_MMAP=1 —
// the whole file is read once into memory. Both paths construct
// byte-identical tables.
func Open(path string) (*Store, error) {
	s := &Store{path: path}
	if os.Getenv(NoMmapEnv) != "1" {
		if data, unmap, err := mapFile(path); err == nil {
			s.data, s.unmap, s.mapped = data, unmap, true
		} else if !errors.Is(err, errors.ErrUnsupported) {
			return nil, fmt.Errorf("colstore: map %s: %w", path, err)
		}
	}
	if s.data == nil {
		data, err := readAligned(path)
		if err != nil {
			return nil, err
		}
		s.data = data
		s.unmap = func() error { return nil }
	}
	t, err := decode(s.data)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	s.Table = t
	return s, nil
}

// readAligned loads the whole file into an 8-byte-aligned buffer (backed by
// a []uint64 allocation) so the same in-place reinterpretation the mapped
// path uses stays legal for int64/float64/uint32/uint16 sections.
func readAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	words := make([]uint64, (size+7)/8)
	var buf []byte
	if len(words) > 0 {
		buf = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// decode checks the container and builds the table over data's sections.
func decode(data []byte) (*relation.Table, error) {
	var meta fileMeta
	secs, err := container.Decode(data, Magic, &meta)
	if err != nil {
		return nil, err
	}
	if len(meta.Cols) == 0 {
		return nil, errors.New("the table has no columns")
	}
	cols := make([]*relation.Column, len(meta.Cols))
	for i := range meta.Cols {
		c, err := decodeColumn(secs, i, &meta.Cols[i], meta.Rows)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", meta.Cols[i].Name, err)
		}
		cols[i] = c
	}
	return relation.NewTable(meta.Table, cols), nil
}

// raw is the bytes of s in place: view's inverse. The format is
// little-endian, as is every host view runs on (amd64, arm64).
func raw[T any](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// view reinterprets the named section, which must hold exactly n values, as
// a []T in place. The container aligns every section to 64 bytes and both
// open paths keep the base at least 8-byte aligned, so the cast is within
// Go's alignment rules for all used T; a section that is not is an error.
// The first failure is kept in *err, and view returns nil once there is one.
func view[T any](secs map[string][]byte, name string, n int, err *error) []T {
	var zero T
	esz := int(unsafe.Sizeof(zero))
	sec := secs[name]
	switch {
	case *err != nil:
	case n < 0 || len(sec)%esz != 0 || len(sec)/esz != n:
		*err = fmt.Errorf("section %q of %d bytes does not hold %d values of %d bytes", name, len(sec), n, esz)
	case n > 0 && uintptr(unsafe.Pointer(&sec[0]))%unsafe.Alignof(zero) != 0:
		*err = fmt.Errorf("section %q is not %d-byte aligned in memory", name, unsafe.Alignof(zero))
	case n > 0:
		return unsafe.Slice((*T)(unsafe.Pointer(&sec[0])), n)
	}
	return nil
}

// decodeColumn builds column i over the file's sections. Every code must
// index the dictionary: a code at or above NDV would pass the checksums and
// index out of range in whatever reads the column later, so its check runs
// here, over pages container.Decode's checksum pass has just read. The
// dictionary must be strictly ascending: every lookup, join-key merge and
// append over one that is not would be silently wrong.
func decodeColumn(secs map[string][]byte, i int, cm *colMeta, nrows int) (*relation.Column, error) {
	c := &relation.Column{Name: cm.Name, Kind: relation.Kind(cm.Kind)}
	var err error
	var top int64 // the largest code
	switch name := sectionName(i, "codes"); codeWidth(cm.NDV) {
	case 1:
		c.Codes, top = viewCodes[uint8](secs, name, nrows, &err)
	case 2:
		c.Codes, top = viewCodes[uint16](secs, name, nrows, &err)
	default:
		c.Codes, top = viewCodes[uint32](secs, name, nrows, &err)
	}
	if err == nil && top >= int64(cm.NDV) {
		return nil, fmt.Errorf("code %d is not below the column's %d distinct values", top, cm.NDV)
	}
	switch name := sectionName(i, "dict"); c.Kind {
	case relation.KindInt:
		c.Ints = view[int64](secs, name, cm.NDV, &err)
	case relation.KindFloat:
		c.Floats = view[float64](secs, name, cm.NDV, &err)
	case relation.KindString:
		offs, blob := view[uint32](secs, name, cm.NDV+1, &err), secs[sectionName(i, "strs")]
		if err != nil {
			return nil, err
		}
		c.Strs = make([]string, cm.NDV)
		for j := range c.Strs {
			lo, hi := offs[j], offs[j+1]
			if lo > hi || int64(hi) > int64(len(blob)) {
				return nil, fmt.Errorf("string dictionary entry %d has bad bounds [%d, %d)", j, lo, hi)
			}
			c.Strs[j] = string(blob[lo:hi])
		}
	default:
		return nil, fmt.Errorf("unknown kind %d", cm.Kind)
	}
	if err == nil {
		err = c.CheckAscending()
	}
	c.SetHist(view[float64](secs, sectionName(i, "hist"), cm.NDV, &err))
	return c, err
}

// viewCodes views the named section as n codes (view) and returns them with
// the largest, -1 when there are none.
func viewCodes[T uint8 | uint16 | uint32](secs map[string][]byte, name string, n int, err *error) (relation.Codes[T], int64) {
	codes := view[T](secs, name, n, err)
	if len(codes) == 0 {
		return codes, -1
	}
	return codes, int64(slices.Max(codes))
}
