package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/registry"
)

// versionInfo describes one retained model artifact on this node.
type versionInfo struct {
	Version int       `json:"version"`
	Bytes   int64     `json:"bytes"`
	ModTime time.Time `json:"mod_time"`
}

// versions lists a model's retained artifacts plus the version it currently
// serves, so the rollout can tell which peers lag.
func (s *Server) versions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.dir == "" {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("no artifact directory configured"), nil)
		return
	}
	if _, err := s.reg.Table(name); err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	retained, err := s.dir.Versions(name)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, err, nil)
		return
	}
	vs := make([]versionInfo, 0, len(retained))
	for _, v := range retained {
		if fi, err := os.Stat(s.dir.VersionPath(name, v)); err == nil {
			vs = append(vs, versionInfo{Version: v, Bytes: fi.Size(), ModTime: fi.ModTime()})
		}
	}
	current := 0
	if st, ok := s.reg.Stats().PerModel[name]; ok {
		current = st.Version
	}
	WriteJSON(w, map[string]any{"model": name, "serving": current, "versions": vs})
}

// artifact streams one versioned model file; the rolling install's pull
// fetches peers' weights through this endpoint.
func (s *Server) artifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	version, err := strconv.Atoi(r.PathValue("version"))
	if err != nil || version <= 0 {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("version must be a positive integer"), nil)
		return
	}
	if s.dir == "" {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("no artifact directory configured"), nil)
		return
	}
	path := s.dir.VersionPath(name, version)
	if _, err := os.Stat(path); err != nil {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("model %q has no artifact v%d", name, version), nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

// pullRequest asks this node to fetch a versioned artifact from a peer (or
// any /v1-speaking source) and hot-swap it in. Source is the peer's base
// URL; the artifact is pulled from <source>/v1/models/<name>/versions/<N>.
type pullRequest struct {
	Source  string `json:"source"`
	Version int    `json:"version"`
}

// pullClient fetches artifacts; the generous timeout covers large models on
// slow links, not health-check latencies.
var pullClient = &http.Client{Timeout: 60 * time.Second}

// pull implements the rolling install's per-node step: download the
// artifact to a temporary file, load it against the served table, rename it
// to this node's copy of that generation only once it loads (so neither a
// crashed transfer nor bytes that do not load replace a copy the node
// serves or its listing offers), and drain-swap it in. The swap reuses the
// lifecycle install path, so in-flight estimates complete on the old
// generation. The peer's table must be encoding-compatible with ours (same
// dictionaries); a node whose backing table diverged re-trains locally
// instead of pulling.
func (s *Server) pull(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req pullRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return
	}
	if req.Source == "" || req.Version <= 0 {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`"source" and a positive "version" are required`), nil)
		return
	}
	if s.dir == "" {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("no artifact directory configured"), nil)
		return
	}
	table, err := s.reg.Table(name)
	if err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	src, err := url.JoinPath(req.Source, "v1", "models", name, "versions", strconv.Itoa(req.Version))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad source url: %w", err), nil)
		return
	}
	var m *core.Model
	var loadErr error
	path, err := s.dir.Put(name, req.Version, func(w io.Writer) error {
		resp, err := pullClient.Get(src)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("source answered %s", resp.Status)
		}
		_, err = io.Copy(w, resp.Body)
		return err
	}, func(tmp string) error {
		m, _, loadErr = artifact.Load(tmp, table)
		return loadErr
	})
	if loadErr != nil {
		WriteError(w, r, http.StatusBadRequest,
			fmt.Errorf("artifact v%d is not loadable against this node's %q table (diverged encoding? retrain locally): %w",
				req.Version, name, loadErr), nil)
		return
	}
	if err != nil {
		WriteError(w, r, http.StatusBadGateway, fmt.Errorf("fetch artifact: %w", err), nil)
		return
	}
	if err := s.reg.SwapModel(name, m, registry.SwapOpts{Path: path, Version: req.Version}); err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	WriteJSON(w, map[string]any{"status": "installed", "model": name, "version": req.Version, "path": path})
}
