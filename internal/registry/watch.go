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
// partially written model must never be loaded.
func (r *Registry) watch(interval time.Duration) {
	defer close(r.watchDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	pending := make(map[string]artifact.Sig)
	for {
		select {
		case <-r.watchStop:
			return
		case <-ticker.C:
			for _, name := range r.watchTick(pending) {
				// Reload re-checks staleness implicitly: it records the mtime
				// it loaded, so a concurrent admin reload just wins the race.
				_ = r.Reload(name)
			}
		}
	}
}

// watchTick performs one poll: it probes every file-backed model, remembers
// candidates whose on-disk signature differs from the loaded one, and returns
// the names whose candidate signature held steady since the previous poll.
// pending is the watcher's cross-poll candidate memory, updated in place; a
// file that keeps changing keeps deferring, and one that reverts to the
// loaded signature is dropped. A vanished file is not stale — the last good
// model keeps serving until the file reappears.
func (r *Registry) watchTick(pending map[string]artifact.Sig) []string {
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
	var ready []string
	stale := make(map[string]bool, len(probes))
	for _, p := range probes {
		sig, err := artifact.Stat(p.path)
		if err != nil || sig.Equal(p.loaded) {
			continue
		}
		stale[p.name] = true
		if prev, ok := pending[p.name]; ok && prev.Equal(sig) {
			delete(pending, p.name)
			ready = append(ready, p.name)
			continue
		}
		pending[p.name] = sig
	}
	for name := range pending {
		if !stale[name] {
			delete(pending, name)
		}
	}
	return ready
}
