package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"duet/internal/artifact"
	"duet/internal/core"
)

// TestManifestViewArtifacts trains each join-view form a manifest declares
// at -epochs 1 and pins what it wrote: the two-table inner join, the
// materialized 3-table graph, and that graph sampled at 6 rows. The weights
// pin is a hash of the loaded model that no file format enters (weightHash);
// its values are those the same views trained to when duettrain described
// them with per-table and edge flags of its own, so they hold the manifest
// path to those weights. The file pin holds the artifact's bytes in the
// DUETMOD1 format. Each artifact must load against the view the manifest
// package builds.
func TestManifestViewArtifacts(t *testing.T) {
	testdata := filepath.Join("..", "duetserve", "testdata")
	sampled := sampledManifest(t, filepath.Join(testdata, "graph_manifest.json"), 6)
	for _, tc := range []struct {
		name, manifest, view, weights, file string
	}{
		{"two-table", filepath.Join(testdata, "legacy_manifest.json"), "orders_customers",
			"81722646ac105eb142c4e78f7d3b159800814bc4e55bbdb2698b8d23910f534b",
			"510ddb4fe8dffbb9aa6a33c787cc548dd774c99e3a378cdf9d4f24abcf23f4e0"},
		{"graph", filepath.Join(testdata, "graph_manifest.json"), "ocr",
			"78180e0fe58eba9a936ccb71e39a78406aafa87857b9692e268958808bb9a051",
			"37bf1f0b3699502fae19ac389453ae6d9fd6e331877b035eefa6e6df1ccd040b"},
		{"sampled graph", sampled, "ocr",
			"4aa86c62c534a41beb1f46795cbf3f65d0685161bbf2b76bd1d06c183f1f03e0",
			"08ce0d20eac3f81bd0d669037494f39365c6a308288fc4fead8a01e4d586be1e"},
	} {
		out := filepath.Join(t.TempDir(), tc.view+".duet")
		if err := run([]string{"-manifest", tc.manifest, "-join", tc.view, "-epochs", "1", "-model", out}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.file {
			t.Errorf("%s: artifact sha256 %x, want %s", tc.name, sum, tc.file)
		}
		_, view, _, err := buildView(tc.manifest, tc.view)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := artifact.Load(out, view)
		if err != nil {
			t.Fatalf("%s: artifact does not load against the manifest's view: %v", tc.name, err)
		}
		if got := weightHash(t, m); got != tc.weights {
			t.Errorf("%s: weights hash %s, want %s", tc.name, got, tc.weights)
		}
	}
}

// weightHash is the sha256 of what a model file carries, in no file's
// format: the Config as JSON, the NDV profile as JSON, and every parameter's
// float32 bits, little-endian, in Params order.
func weightHash(t *testing.T, m *core.Model) string {
	cfg, err := json.Marshal(m.Config())
	if err != nil {
		t.Fatal(err)
	}
	ndvs, err := json.Marshal(m.Table().NDVs())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(cfg)
	h.Write(ndvs)
	for _, p := range m.Params() {
		for _, w := range p.W.Data {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(w)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampledManifest writes a copy of the manifest at path whose join views
// sample budget rows, with its CSV paths made absolute.
func sampledManifest(t *testing.T, path string, budget int) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string][]map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for _, ms := range man["models"] {
		abs, err := filepath.Abs(filepath.Join(filepath.Dir(path), ms["csv"].(string)))
		if err != nil {
			t.Fatal(err)
		}
		ms["csv"] = abs
	}
	for _, js := range man["joins"] {
		js["sample"] = budget
	}
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "sampled.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestManifestRefusesTableFlags: the manifest declares the view's tables and
// architecture, so the flags that would describe them are refused beside it,
// and -join without a manifest has nothing to name.
func TestManifestRefusesTableFlags(t *testing.T) {
	man := filepath.Join("..", "duetserve", "testdata", "graph_manifest.json")
	out := filepath.Join(t.TempDir(), "m.duet")
	for _, args := range [][]string{
		{"-manifest", man, "-join", "ocr", "-syn", "census"},
		{"-manifest", man, "-join", "ocr", "-large"},
		{"-manifest", man, "-join", "ocr", "-pack", out},
		{"-manifest", man, "-join", "ocr", "-rows", "10", "-seed", "2", "-csv", "x.csv"},
		{"-manifest", man},
		{"-manifest", man, "-join", "nope"},
		{"-manifest", man, "-join", "orders"},
		{"-join", "ocr"},
	} {
		if err := run(append(args, "-epochs", "0", "-model", out)); err == nil {
			t.Errorf("%v: trained, want an error", args)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused run wrote %s: %v", out, err)
	}
}
