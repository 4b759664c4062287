package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

const magic = "TESTMAG1"

// framed is a file of sections laid out at their own offsets and the
// metadata table that names them: the header and metadata checksums hold
// whatever the table claims, so Decode gets past them to the claims.
func framed(data []byte, table string) []byte {
	crc := func(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
	meta := fmt.Sprintf(`{"meta":{},"sections":[%s]}`, table)
	file := make([]byte, alignUp(uint64(headerSize+len(data))))
	copy(file[headerSize:], data)
	metaOff := uint64(len(file))
	file = append(file, meta...)
	copy(file, magic)
	binary.LittleEndian.PutUint64(file[8:], metaOff)
	binary.LittleEndian.PutUint64(file[16:], uint64(len(meta)))
	binary.LittleEndian.PutUint64(file[24:], uint64(len(file)))
	binary.LittleEndian.PutUint32(file[32:], crc([]byte(meta)))
	binary.LittleEndian.PutUint32(file[crcSize:], crc(file[:crcSize]))
	return file
}

// TestDecodeRoundTrip: Decode returns what Encode wrote, sections aliasing
// the file, and the caller's metadata.
func TestDecodeRoundTrip(t *testing.T) {
	type meta struct{ Rows int }
	var buf bytes.Buffer
	if err := Encode(&buf, magic, meta{Rows: 7}, []Section{
		{"a", []byte("hello")}, {"empty", nil}, {"b", bytes.Repeat([]byte{1}, 100)},
	}); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	var got meta
	secs, err := Decode(file, magic, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 7 || string(secs["a"]) != "hello" || len(secs["empty"]) != 0 || len(secs["b"]) != 100 || len(secs) != 3 {
		t.Fatalf("decoded %+v, %q", got, secs)
	}
	if &secs["a"][0] != &file[headerSize] {
		t.Fatal("the first section is not the file's bytes after the header")
	}
	if _, err := Decode(file, "OTHERMAG", &got); !errors.Is(err, ErrMagic) {
		t.Fatalf("another magic: %v, want ErrMagic", err)
	}
}

// TestDecodeRefusesBadSectionTables: a section table whose checksums hold
// is still refused when a section is misaligned, overlaps the one before
// it or the header, runs into the metadata, repeats a name, or leaves
// nonzero bytes between sections.
func TestDecodeRefusesBadSectionTables(t *testing.T) {
	data := make([]byte, 200)
	copy(data, "abcd")
	copy(data[128:], "wxyz")
	abcd, wxyz := crc32.Checksum([]byte("abcd"), castagnoli), crc32.Checksum([]byte("wxyz"), castagnoli)
	for _, c := range []struct{ name, table, want string }{
		{"misaligned", fmt.Sprintf(`{"name":"a","off":65,"len":3,"crc":%d}`, crc32.Checksum([]byte("bcd"), castagnoli)), "misplaced"},
		{"inside the header", `{"name":"a","off":0,"len":4,"crc":0}`, "misplaced"},
		{"overlapping", fmt.Sprintf(`{"name":"a","off":64,"len":4,"crc":%d},{"name":"b","off":64,"len":4,"crc":%d}`, abcd, abcd), "misplaced"},
		{"into the metadata", `{"name":"a","off":64,"len":1000,"crc":0}`, "misplaced"},
		{"repeated name", fmt.Sprintf(`{"name":"a","off":64,"len":4,"crc":%d},{"name":"a","off":192,"len":4,"crc":%d}`, abcd, wxyz), "twice"},
		{"unlisted bytes", fmt.Sprintf(`{"name":"a","off":64,"len":4,"crc":%d}`, abcd), "padding"},
		{"bad crc", fmt.Sprintf(`{"name":"a","off":64,"len":4,"crc":%d},{"name":"b","off":192,"len":4,"crc":%d}`, abcd, abcd), "checksum"},
	} {
		var meta struct{}
		if _, err := Decode(framed(data, c.table), magic, &meta); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode error %v, want one naming %q", c.name, err, c.want)
		}
	}
	var meta struct{}
	ok := fmt.Sprintf(`{"name":"a","off":64,"len":4,"crc":%d},{"name":"b","off":192,"len":4,"crc":%d}`, abcd, wxyz)
	if _, err := Decode(framed(data, ok), magic, &meta); err != nil {
		t.Fatalf("the well-formed control table: %v", err)
	}
}
