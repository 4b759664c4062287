// Package container is the one on-disk framing of duet's files: a model
// (".duet", magic "DUETMOD1") and a column store (".duetcol", magic
// "DUETCOL2") are each a header, named byte sections and a JSON metadata
// section, and every byte of the file is checked when it is decoded:
//
//	offset 0   magic, 8 bytes chosen by the caller (the last is a version digit)
//	offset 8   uint64 metaOff   — start of the JSON metadata
//	offset 16  uint64 metaLen   — the metadata runs to the end of the file
//	offset 24  uint64 fileSize  — expected total size; truncation detection
//	offset 32  uint32 metaCRC   — CRC-32C of the metadata bytes
//	offset 36  zeros up to 60
//	offset 60  uint32 headerCRC — CRC-32C of bytes [0, 60)
//	offset 64  the data sections in table order, each 64-byte aligned,
//	           zero bytes between them
//	metaOff    {"meta": <the caller's metadata>,
//	            "sections": [{"name", "off", "len", "crc"}, ...]}
//
// Integers are little-endian, and each section's crc is the CRC-32C of its
// bytes. Decode checks the header's CRC, the file size, the metadata's CRC,
// every section's bounds, alignment and CRC, and the padding, before it
// returns, so flipping any one byte of a file is an error when it is opened.
// The sections it returns alias its input, so a mapped file is read in place.
package container

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	headerSize = 64
	crcSize    = 60 // header bytes covered by headerCRC
	align      = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMagic reports a file that does not start with the magic asked for.
var ErrMagic = errors.New("container: bad magic")

// Section is one named run of bytes in a file.
type Section struct {
	Name string
	Data []byte
}

// entry is one row of the section table.
type entry struct {
	Name string `json:"name"`
	Off  uint64 `json:"off"`
	Len  uint64 `json:"len"`
	CRC  uint32 `json:"crc"`
}

// fileMeta is the JSON metadata section.
type fileMeta struct {
	Meta     json.RawMessage `json:"meta"`
	Sections []entry         `json:"sections"`
}

func alignUp(off uint64) uint64 { return (off + align - 1) &^ (align - 1) }

// Encode writes a file with the 8-byte magic, meta (marshalled as JSON) as
// its metadata and sections in order, each under a name of its own.
func Encode(w io.Writer, magic string, meta any, sections []Section) error {
	raw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("container: metadata: %w", err)
	}
	fm := fileMeta{Meta: raw, Sections: make([]entry, len(sections))}
	off := uint64(headerSize)
	for i, s := range sections {
		off = alignUp(off)
		fm.Sections[i] = entry{Name: s.Name, Off: off, Len: uint64(len(s.Data)), CRC: crc32.Checksum(s.Data, castagnoli)}
		off += uint64(len(s.Data))
	}
	metaOff := alignUp(off)
	metaBytes, err := json.Marshal(&fm)
	if err != nil {
		return fmt.Errorf("container: metadata: %w", err)
	}
	var header [headerSize]byte
	copy(header[:], magic)
	binary.LittleEndian.PutUint64(header[8:], metaOff)
	binary.LittleEndian.PutUint64(header[16:], uint64(len(metaBytes)))
	binary.LittleEndian.PutUint64(header[24:], metaOff+uint64(len(metaBytes)))
	binary.LittleEndian.PutUint32(header[32:], crc32.Checksum(metaBytes, castagnoli))
	binary.LittleEndian.PutUint32(header[crcSize:], crc32.Checksum(header[:crcSize], castagnoli))

	bw := bufio.NewWriterSize(w, 64<<10)
	var zeros [align]byte
	bw.Write(header[:])
	pos := uint64(headerSize)
	for i, s := range sections {
		bw.Write(zeros[:fm.Sections[i].Off-pos])
		bw.Write(s.Data)
		pos = fm.Sections[i].Off + uint64(len(s.Data))
	}
	bw.Write(zeros[:metaOff-pos])
	bw.Write(metaBytes)
	return bw.Flush() // a bufio.Writer keeps its first error and returns it here
}

// Decode checks that data is a whole, uncorrupted file that starts with
// magic, unmarshals its metadata into meta and returns its sections by name,
// each aliasing data. A section lies between the header and the metadata,
// starts 64-byte aligned after the one before it, and has a name of its own;
// every byte between sections is zero. Decode allocates O(the metadata).
func Decode(data []byte, magic string, meta any) (map[string][]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("container: file too short (%d bytes) for a %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("%w %q (want %q)", ErrMagic, data[:8], magic)
	}
	if got, want := crc32.Checksum(data[:crcSize], castagnoli), binary.LittleEndian.Uint32(data[crcSize:]); got != want {
		return nil, fmt.Errorf("container: header checksum mismatch (got %08x, want %08x): torn or corrupted write", got, want)
	}
	size := uint64(len(data))
	if fileSize := binary.LittleEndian.Uint64(data[24:]); fileSize != size {
		return nil, fmt.Errorf("container: truncated: header records %d bytes, file has %d", fileSize, size)
	}
	metaOff, metaLen := binary.LittleEndian.Uint64(data[8:]), binary.LittleEndian.Uint64(data[16:])
	if metaOff < headerSize || metaOff > size || metaLen != size-metaOff {
		return nil, fmt.Errorf("container: metadata section at %d of %d bytes does not end the %d-byte file", metaOff, metaLen, size)
	}
	metaBytes := data[metaOff:]
	if got, want := crc32.Checksum(metaBytes, castagnoli), binary.LittleEndian.Uint32(data[32:]); got != want {
		return nil, fmt.Errorf("container: metadata checksum mismatch (got %08x, want %08x)", got, want)
	}
	var fm fileMeta
	if err := json.Unmarshal(metaBytes, &fm); err != nil {
		return nil, fmt.Errorf("container: metadata: %w", err)
	}
	secs := make(map[string][]byte, len(fm.Sections))
	pos := uint64(headerSize)
	for _, e := range fm.Sections {
		if e.Off%align != 0 || e.Off < pos || e.Off > metaOff || e.Len > metaOff-e.Off {
			return nil, fmt.Errorf("container: section %q [%d, +%d) is misplaced: it must start 64-byte aligned at or after %d and end by %d", e.Name, e.Off, e.Len, pos, metaOff)
		}
		if !zero(data[pos:e.Off]) {
			return nil, fmt.Errorf("container: nonzero padding before section %q", e.Name)
		}
		sec := data[e.Off : e.Off+e.Len]
		if got := crc32.Checksum(sec, castagnoli); got != e.CRC {
			return nil, fmt.Errorf("container: section %q checksum mismatch (got %08x, want %08x)", e.Name, got, e.CRC)
		}
		if _, dup := secs[e.Name]; dup {
			return nil, fmt.Errorf("container: section %q appears twice", e.Name)
		}
		secs[e.Name] = sec
		pos = e.Off + e.Len
	}
	if !zero(data[pos:metaOff]) {
		return nil, errors.New("container: nonzero padding before the metadata")
	}
	if err := json.Unmarshal(fm.Meta, meta); err != nil {
		return nil, fmt.Errorf("container: metadata: %w", err)
	}
	return secs, nil
}

// zero reports whether every byte of b is zero.
func zero(b []byte) bool { return len(bytes.Trim(b, "\x00")) == 0 }

// WriteFile replaces path with what write produces, atomically: the bytes go
// to a temporary file in path's directory (<path>.tmp*), which is renamed
// into place, so a reader sees the previous bytes or the new ones, never a
// short file, and a mapped copy of the old file stays valid. Parent
// directories are created as needed. A non-nil check sees the finished
// temporary file before the rename. If write, the close, check or the
// rename fails, path keeps its previous content and no temporary is left
// behind.
func WriteFile(path string, write func(io.Writer) error, check func(tmp string) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && check != nil {
		err = check(tmp.Name())
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
