package cluster

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"sort"
	"time"

	"duet/internal/api"
	"duet/internal/obs"
)

// This file is the fleet's trace aggregation plane. Each process keeps its
// own bounded ring of finished traces; one request leaves fragments of the
// same trace id in several rings (the proxy's forward span, the owning
// replica's route + engine stages). The proxy stitches those fragments back
// into a single ordered view, so an operator reads one timeline instead of
// fetching N rings by hand.

// traceSourceProxy names the proxy's own ring in stitched output.
const traceSourceProxy = "proxy"

// mergedSpan is one span in a stitched trace, annotated with the process it
// was recorded on. OffsetUS is rebased onto the stitched trace's start (the
// earliest source start), so the global ordering survives the merge.
type mergedSpan struct {
	Source     string            `json:"source"`
	Name       string            `json:"name"`
	OffsetUS   int64             `json:"offset_us"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// stitchedTrace is one trace id merged across every ring that held a
// fragment of it. Partial reports that at least one fleet member could not be
// consulted (marked down or fetch failed), so spans may be missing — the
// merge degrades instead of failing.
type stitchedTrace struct {
	TraceID    string       `json:"trace_id"`
	Start      time.Time    `json:"start"`
	DurationUS int64        `json:"duration_us"`
	Slow       bool         `json:"slow,omitempty"`
	Partial    bool         `json:"partial"`
	Sources    []string     `json:"sources"`
	Spans      []mergedSpan `json:"spans"`
}

// sourcedSnapshot pairs a ring snapshot with the process it came from.
type sourcedSnapshot struct {
	source string
	snap   obs.TraceSnapshot
}

// collectTrace gathers every fragment of one trace id: the proxy's own ring
// plus each member's /v1/debug/traces/{id}, asked at once. A member that is
// marked down or whose fetch fails makes the view partial; a clean 404 is an
// authoritative "not here" and does not.
func (p *Proxy) collectTrace(r *http.Request, id string) (frags []sourcedSnapshot, partial bool) {
	if snap, ok := p.cfg.Tracer.Get(id); ok {
		frags = append(frags, sourcedSnapshot{source: traceSourceProxy, snap: snap})
	}
	answers, partial := askMembers[obs.TraceSnapshot](p, r, "/v1/debug/traces/"+id)
	for _, addr := range slices.Sorted(maps.Keys(answers)) {
		frags = append(frags, sourcedSnapshot{source: addr, snap: answers[addr]})
	}
	return frags, partial
}

// stitch merges trace fragments into one ordered view. Every span is rebased
// onto the earliest fragment start, so proxy forward spans and replica engine
// spans interleave on a single timeline (modulo cross-host clock skew, which
// is the operator's to read with the source column in hand).
func stitch(id string, frags []sourcedSnapshot, partial bool) stitchedTrace {
	st := stitchedTrace{TraceID: id, Partial: partial}
	if len(frags) == 0 {
		return st
	}
	earliest := frags[0].snap.Start
	for _, f := range frags[1:] {
		if f.snap.Start.Before(earliest) {
			earliest = f.snap.Start
		}
	}
	st.Start = earliest
	for _, f := range frags {
		base := f.snap.Start.Sub(earliest).Microseconds()
		if end := base + f.snap.DurationUS; end > st.DurationUS {
			st.DurationUS = end
		}
		st.Slow = st.Slow || f.snap.Slow
		st.Sources = append(st.Sources, f.source)
		for _, sp := range f.snap.Spans {
			st.Spans = append(st.Spans, mergedSpan{
				Source:     f.source,
				Name:       sp.Name,
				OffsetUS:   base + sp.OffsetUS,
				DurationUS: sp.DurationUS,
				Attrs:      sp.Attrs,
			})
		}
	}
	sort.Strings(st.Sources)
	sort.SliceStable(st.Spans, func(i, j int) bool { return st.Spans[i].OffsetUS < st.Spans[j].OffsetUS })
	return st
}

// traceByID serves GET /v1/debug/traces/{id}: the stitched fleet-wide view
// of one trace.
func (p *Proxy) traceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	frags, partial := p.collectTrace(r, id)
	w.Header().Set("Content-Type", "application/json")
	if len(frags) == 0 {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{"error": "trace not found", "partial": partial})
		return
	}
	json.NewEncoder(w).Encode(stitch(id, frags, partial))
}

// traces serves GET /v1/debug/traces on the proxy. Without parameters it
// stays the proxy's own ring (the single-process contract every replica also
// serves). With ?slow=1 it becomes the fleet view: each healthy member's
// slow-marked traces are collected, fragments sharing a trace id are
// stitched, and the result is ordered worst first. A member that answers 404
// (one run without a trace ring) has nothing to add and leaves the view whole.
func (p *Proxy) traces(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("slow") != "1" {
		p.cfg.Tracer.Handler().ServeHTTP(w, r)
		return
	}
	answers, partial := askMembers[listing](p, r, "/v1/debug/traces?slow=1")
	bySource := map[string][]obs.TraceSnapshot{traceSourceProxy: p.cfg.Tracer.Slow()}
	for addr, l := range answers {
		bySource[addr] = l.Traces
	}

	byID := map[string][]sourcedSnapshot{}
	var order []string
	for _, source := range slices.Sorted(maps.Keys(bySource)) {
		for _, snap := range bySource[source] {
			if _, seen := byID[snap.TraceID]; !seen {
				order = append(order, snap.TraceID)
			}
			byID[snap.TraceID] = append(byID[snap.TraceID], sourcedSnapshot{source: source, snap: snap})
		}
	}
	stitched := make([]stitchedTrace, 0, len(order))
	for _, id := range order {
		stitched = append(stitched, stitch(id, byID[id], partial))
	}
	sort.SliceStable(stitched, func(i, j int) bool { return stitched[i].DurationUS > stitched[j].DurationUS })
	api.WriteJSON(w, map[string]any{"traces": stitched, "partial": partial})
}
