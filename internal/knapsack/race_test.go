//go:build race

package knapsack

// The race detector makes sync.Pool drop items at random, so the
// allocation pins of pooled kernels do not hold under it.
func init() { raceEnabled = true }
