//go:build race

package core

// The race detector makes sync.Pool drop items at random, so allocation
// counts under it say nothing about the pools.
func init() { raceEnabled = true }
