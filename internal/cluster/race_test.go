//go:build race

package cluster

// The race detector makes sync.Pool drop items at random, so allocation
// figures under it say nothing about the pools.
func init() { raceEnabled = true }
