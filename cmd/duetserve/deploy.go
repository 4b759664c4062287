package main

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"

	"duet"
	"duet/cmd/internal/manifest"
	"duet/internal/artifact"
)

func epochsOrDefault(p *int) int {
	if p != nil {
		return *p
	}
	return 3
}

func modelConfig(large bool) duet.Config {
	if large {
		return duet.DMVConfig()
	}
	return duet.DefaultConfig()
}

// ensureModel returns weights for a table and the file backing them: the
// first of generations — a retrained deployment's versioned artifacts,
// newest first — that loads against tbl (a CSV-backed table lost its
// ingested rows at restart, so a generation whose dictionaries grew no
// longer fits it; a compacted .duetcol-backed one fits only its newest),
// else the seed file at path, else a model trained data-only for epochs and
// saved to path so later runs and hot reload have a file to watch. A non-nil
// src streams the training tuples (the sampled join path) instead of
// reading table rows.
func ensureModel(tbl *duet.Table, generations []string, path string, epochs int, large bool, src *duet.JoinSampler) (*duet.Model, string, error) {
	for _, p := range append(generations, path) {
		m, _, err := artifact.Load(p, tbl)
		if err == nil {
			slog.Info("model loaded", "model", tbl.Name, "path", p, "mb", float64(m.SizeBytes())/1e6)
			return m, p, nil
		}
		if p != path {
			slog.Warn("generation does not load against the rebuilt table; trying the next older", "model", tbl.Name, "path", p, "error", err)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, "", err
		}
	}
	m := duet.New(tbl, modelConfig(large))
	if epochs > 0 {
		slog.Info("no weights on disk; training data-only", "model", tbl.Name, "path", path, "epochs", epochs)
		tc := duet.DefaultTrainConfig()
		tc.Epochs = epochs
		tc.Lambda = 0
		if src != nil {
			tc.Source = src
			tc.SourceRows = tbl.NumRows()
		}
		duet.Train(m, tc)
	} else {
		slog.Warn("serving an untrained model", "model", tbl.Name)
	}
	if err := artifact.Save(path, m); err != nil {
		return nil, "", err
	}
	slog.Info("model saved", "model", tbl.Name, "path", path)
	return m, path, nil
}

// assembleRegistry builds every table and model a manifest names and
// registers them.
func assembleRegistry(reg *duet.Registry, man *manifest.Manifest, manifestDir, modelDir string) error {
	dir := artifact.Dir(modelDir)
	// add resolves one entry's weights and registers it; file is its "model"
	// field, the seed weights.
	add := func(name, file string, tbl *duet.Table, epochs int, large bool, src *duet.JoinSampler, opts duet.AddOpts) error {
		path := dir.Path(name)
		if filepath.IsAbs(file) {
			path = file
		} else if file != "" {
			path = filepath.Join(modelDir, file)
		}
		versions, err := dir.Versions(name)
		if err != nil {
			return err
		}
		var generations []string
		for i := len(versions) - 1; i >= 0; i-- {
			generations = append(generations, dir.VersionPath(name, versions[i]))
		}
		m, path, err := ensureModel(tbl, generations, path, epochs, large, src)
		if err != nil {
			return fmt.Errorf("model %q: %w", name, err)
		}
		opts.Path = path
		return reg.Add(name, tbl, m, opts)
	}
	tables, err := man.Tables(manifestDir)
	if err != nil {
		return err
	}
	for _, ms := range man.Models {
		opts := duet.AddOpts{Serve: ms.Serve.Config(), Quant: ms.Quant}
		if err := add(ms.Name, ms.Model, tables[ms.Name], epochsOrDefault(ms.TrainEpochs), ms.Large, nil, opts); err != nil {
			return err
		}
	}
	for _, js := range man.Joins {
		joined, opts, src, err := js.Materialize(tables)
		if err != nil {
			return fmt.Errorf("join %q: %w", js.Name, err)
		}
		slog.Info("join view built", "model", js.Name, "stats", joined.Stats())
		opts.Serve = js.Serve.Config()
		opts.Quant = js.Quant
		if err := add(js.Name, js.Model, joined, epochsOrDefault(js.TrainEpochs), js.Large, src, opts); err != nil {
			return err
		}
	}
	return nil
}

// startLifecycle creates the supervisor declared by the manifest's lifecycle
// block and places every manifest model under management, so ingest and
// feedback drive drift-aware background retraining with versioned saves into
// the model directory. Legacy two-table join views are skipped — they have no
// registered rebuild substrate; join-graph views (sampled or not) retrain
// from their base tables.
func startLifecycle(reg *duet.Registry, man *manifest.Manifest, manifestDir, modelDir string, suite *duet.ObsSuite) (*duet.Lifecycle, error) {
	opts := duet.LifecycleOptions{Dir: modelDir, Log: suite.Logger()}
	if suite != nil {
		opts.Obs = suite.Metrics
	}
	lc := duet.NewLifecycle(reg, man.Lifecycle.Policy(), opts)
	manage := func(name, pack string, large bool, epochs int) error {
		tc := duet.DefaultTrainConfig()
		tc.Lambda = 0
		if epochs > 0 {
			tc.Epochs = epochs
		}
		return lc.Manage(name, duet.LifecycleManageOpts{Config: modelConfig(large), Train: tc, Pack: pack})
	}
	for _, ms := range man.Models {
		// A .duetcol-backed table compacts into its own file on retrain.
		if err := manage(ms.Name, ms.ColPath(manifestDir), ms.Large, epochsOrDefault(ms.TrainEpochs)); err != nil {
			lc.Close()
			return nil, err
		}
	}
	for _, js := range man.Joins {
		if !js.Graph() {
			slog.Warn("legacy two-table join views are not lifecycle-managed; skipping", "model", js.Name)
			continue
		}
		if err := manage(js.Name, "", js.Large, epochsOrDefault(js.TrainEpochs)); err != nil {
			lc.Close()
			return nil, err
		}
	}
	return lc, nil
}
