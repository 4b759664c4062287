package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"duet/internal/artifact"
)

// TestManifestViewArtifacts trains each join-view form a manifest declares
// at -epochs 1 and pins the artifact's bytes: the two-table inner join, the
// materialized 3-table graph, and that graph sampled at 6 rows. The hashes
// are those the same views trained to when duettrain described them with
// per-table and edge flags of its own, so they also hold the manifest path
// to those bytes. Each artifact must load against the view the manifest
// package builds.
func TestManifestViewArtifacts(t *testing.T) {
	testdata := filepath.Join("..", "duetserve", "testdata")
	sampled := sampledManifest(t, filepath.Join(testdata, "graph_manifest.json"), 6)
	for _, tc := range []struct {
		name, manifest, view, sha256 string
	}{
		{"two-table", filepath.Join(testdata, "legacy_manifest.json"), "orders_customers", "a1aabd463336e435c8f4fd8d624ec2686012ff0ffe422f7fe5395cac92e85a5c"},
		{"graph", filepath.Join(testdata, "graph_manifest.json"), "ocr", "32322681fc6d0163c6bd70fc68b5540ce5ee571cb6da7843dd1edb85b435ee9f"},
		{"sampled graph", sampled, "ocr", "2a62d04e3e42471e70ed6268966851a0ba49004cb9707ad6d6eb573f945b7830"},
	} {
		out := filepath.Join(t.TempDir(), tc.view+".duet")
		if err := run([]string{"-manifest", tc.manifest, "-join", tc.view, "-epochs", "1", "-model", out}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("%s: artifact sha256 %x, want %s", tc.name, sum, tc.sha256)
		}
		_, view, _, err := buildView(tc.manifest, tc.view)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := artifact.Load(out, view); err != nil {
			t.Errorf("%s: artifact does not load against the manifest's view: %v", tc.name, err)
		}
	}
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
