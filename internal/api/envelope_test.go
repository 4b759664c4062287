package api

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"duet/internal/registry"
	"duet/internal/serve"
)

// TestStatusFor: each service error class maps to its status; a contained
// forward-pass panic is the server's fault, not the client's.
func TestStatusFor(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{serve.ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("registry: %w", registry.ErrClosed), http.StatusServiceUnavailable},
		{fmt.Errorf("model alpha: %w", serve.ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("%w: runtime error: index out of range [7] with length 3", serve.ErrBackendPanic), http.StatusInternalServerError},
		{errors.New(`registry: unknown model "beta"`), http.StatusNotFound},
		{errLifecycleDisabled, http.StatusNotFound},
		{errors.New("parse: unexpected token"), http.StatusBadRequest},
	} {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%q) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCodeFor: every status the handlers write has its stable code.
func TestCodeFor(t *testing.T) {
	for status, want := range map[int]string{
		http.StatusBadRequest:           CodeBadRequest,
		http.StatusNotFound:             CodeNotFound,
		http.StatusServiceUnavailable:   CodeUnavailable,
		http.StatusTooManyRequests:      CodeOverloaded,
		http.StatusUnsupportedMediaType: CodeUnsupported,
		http.StatusBadGateway:           CodeUpstream,
		http.StatusInternalServerError:  CodeInternal,
	} {
		if got := codeFor(status); got != want {
			t.Errorf("codeFor(%d) = %q, want %q", status, got, want)
		}
	}
}
