//go:build !unix

package colstore

import "errors"

// mapFile reports mmap as unsupported; Open falls back to reading the file
// into one aligned buffer.
func mapFile(path string) ([]byte, func() error, error) {
	return nil, nil, errors.ErrUnsupported
}
