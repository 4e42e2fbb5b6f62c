package knapsack

import (
	"math"
	"sort"
)

// oracleExactInt is the exact DP that the pooled solveExactIntGuard
// replaced, kept as its test oracle: fresh tables on every call, a row
// for every item, read back for every item, and cells indexed through
// c−w[i].
func oracleExactInt(items []Item, capacity int) Result {
	if capacity < 0 {
		return Result{}
	}
	w := make([]int, len(items))
	for i, it := range items {
		w[i] = int(math.Ceil(it.Weight - feasEps))
		if w[i] < 0 {
			w[i] = 0
		}
	}
	// dp[c] = best value at weight ≤ c; per-item choice rows are bitsets so
	// the table stays compact (1 bit per cell) even at large capacities.
	dp := make([]float64, capacity+1)
	words := (capacity + 64) / 64
	choice := make([]uint64, len(items)*words)
	for i, it := range items {
		if it.Value <= 0 {
			continue
		}
		row := choice[i*words : (i+1)*words]
		for c := capacity; c >= w[i]; c-- {
			if cand := dp[c-w[i]] + it.Value; cand > dp[c] {
				dp[c] = cand
				row[c/64] |= 1 << uint(c%64)
			}
		}
	}
	// Reconstruct.
	var res Result
	c := capacity
	for i := len(items) - 1; i >= 0; i-- {
		if choice[i*words+c/64]&(1<<uint(c%64)) != 0 {
			res.Chosen = append(res.Chosen, i)
			res.Value += items[i].Value
			res.Weight += items[i].Weight
			c -= w[i]
		}
	}
	sort.Ints(res.Chosen)
	return res
}
