package registry

import (
	"time"

	"duet/internal/artifact"
)

// watch is the hot-reload poller: every interval it stats each file-backed
// model and reloads the ones whose file changed AND settled. Polling (rather
// than inotify) keeps the registry on the standard library and works on every
// platform and filesystem; the interval bounds staleness, and the reload
// itself is the same drain-safe swap the admin endpoint uses. The settle
// requirement (an identical artifact.Sig on two consecutive polls) debounces
// mid-write mtime churn: this repo's own writers rename finished files into
// place, but an operator's cp or rsync over a watched file does not, and a
// partially written model must never be loaded. A file whose reload failed
// is not tried again until it changes: loading it again would only build
// and refuse the same model once more.
func (r *Registry) watch(interval time.Duration) {
	defer close(r.watchDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	w := watchState{pending: map[string]artifact.Sig{}, failed: map[string]artifact.Sig{}}
	for {
		select {
		case <-r.watchStop:
			return
		case <-ticker.C:
			for name, sig := range r.watchTick(w) {
				// Reload re-checks staleness implicitly: it records the mtime
				// it loaded, so a concurrent admin reload just wins the race.
				if r.Reload(name) != nil {
					w.failed[name] = sig
				}
			}
		}
	}
}

// watchState is the watcher's memory across polls, per model name.
type watchState struct {
	// pending is a changed file's signature, reloaded if it still holds at
	// the next poll.
	pending map[string]artifact.Sig
	// failed is the signature of a file whose reload failed.
	failed map[string]artifact.Sig
}

// watchTick performs one poll: it probes every file-backed model, remembers
// candidates whose on-disk signature differs from the loaded one, and returns
// the names whose candidate signature held steady since the previous poll,
// with that signature. A file that keeps changing keeps deferring, one that
// reverts to the loaded signature is dropped, and one whose signature is the
// one that failed to reload is skipped. A vanished file is not stale — the
// last good model keeps serving until the file reappears.
func (r *Registry) watchTick(w watchState) map[string]artifact.Sig {
	type probe struct {
		name   string
		path   string
		loaded artifact.Sig
	}
	r.mu.RLock()
	probes := make([]probe, 0, len(r.entries))
	for _, e := range r.entries {
		if e.path != "" {
			probes = append(probes, probe{e.name, e.path, e.sig})
		}
	}
	r.mu.RUnlock()
	ready := map[string]artifact.Sig{}
	stale := make(map[string]bool, len(probes))
	for _, p := range probes {
		sig, err := artifact.Stat(p.path)
		if err != nil || sig.Equal(p.loaded) {
			continue
		}
		stale[p.name] = true
		if failed, ok := w.failed[p.name]; ok && failed.Equal(sig) {
			continue
		}
		if prev, ok := w.pending[p.name]; ok && prev.Equal(sig) {
			delete(w.pending, p.name)
			ready[p.name] = sig
			continue
		}
		w.pending[p.name] = sig
	}
	for _, m := range []map[string]artifact.Sig{w.pending, w.failed} {
		for name := range m {
			if !stale[name] {
				delete(m, name)
			}
		}
	}
	return ready
}
