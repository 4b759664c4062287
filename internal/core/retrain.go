package core

import (
	"fmt"

	"duet/internal/made"
	"duet/internal/relation"
)

// EncodingCompatible reports whether m's weights can keep serving when its
// table is replaced by t: the column count and per-column NDV profile must
// match, because every value encoding, MPSN input width, and output logit
// block is sized by the dictionary. It is the lifecycle subsystem's retrain
// dispatch test — nil means appended rows introduced no fresh dictionary
// values, so the model can be cloned onto the grown table and fine-tuned;
// an error names the first grown column, and the caller must train a fresh
// model instead.
//
// The check is structural (NDV equality). Under the append-only ingest path
// that is exact: relation.AppendRows only ever adds dictionary values, so an
// unchanged NDV implies an unchanged dictionary.
func EncodingCompatible(m *Model, t *relation.Table) error {
	have := m.table.NDVs()
	ndvs := t.NDVs()
	if len(ndvs) != len(have) {
		return fmt.Errorf("core: model has %d columns, table %q has %d", len(have), t.Name, len(ndvs))
	}
	for i := range ndvs {
		if ndvs[i] != have[i] {
			return fmt.Errorf("core: column %d (%s) NDV changed %d -> %d; the dictionary grew and the trained encodings no longer cover it",
				i, t.Cols[i].Name, have[i], ndvs[i])
		}
	}
	return nil
}

// CloneFor returns a new model over t carrying this model's configuration and
// a copy of its weights — the in-memory analogue of Save+Load, and the
// substrate of the lifecycle fine-tune path: clone the served model onto the
// grown table (EncodingCompatible must hold), FineTune the clone on observed
// feedback, and hot-swap it in while the original keeps serving untouched.
//
// CloneFor only reads the source model's parameter values and published
// plan config, which inference never writes, so it is safe to call while the
// source is serving; it must not race with training on the source.
func (m *Model) CloneFor(t *relation.Table) (*Model, error) {
	if err := EncodingCompatible(m, t); err != nil {
		return nil, err
	}
	c := NewModel(t, m.cfg)
	if len(c.params) != len(m.params) {
		return nil, fmt.Errorf("core: clone built %d params, source has %d", len(c.params), len(m.params))
	}
	for i, p := range m.params {
		dst := c.params[i]
		if dst.W.Rows != p.W.Rows || dst.W.Cols != p.W.Cols {
			return nil, fmt.Errorf("core: clone param %d shape %dx%d, source %dx%d",
				i, dst.W.Rows, dst.W.Cols, p.W.Rows, p.W.Cols)
		}
		copy(dst.W.Data, p.W.Data)
	}
	if cfg := m.PlanConfig(); cfg != (made.PlanConfig{}) {
		c.publish(cfg) // serving config travels with the clone
	}
	return c, nil
}
