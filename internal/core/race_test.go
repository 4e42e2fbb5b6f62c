//go:build race

package core

// The race detector makes sync.Pool drop items at random, so the
// allocation pins of pooled kernels do not hold under it.
func init() { raceEnabled = true }
