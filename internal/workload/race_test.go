//go:build race

package workload

// The race detector makes sync.Pool (regexp's machine cache) drop items at
// random, so allocation counts under it say nothing.
func init() { raceEnabled = true }
