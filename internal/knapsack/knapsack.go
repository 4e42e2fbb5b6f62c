// Package knapsack implements 0/1 knapsack solvers: an exact
// dynamic program for integer weights, a (1+ε)-approximation scheme
// (FPTAS) for arbitrary weights, and a density-greedy baseline.
//
// In the BCC pipeline, the BCC(1) subproblem — cover each query with the
// single classifier identical to it — is exactly knapsack (Theorem 3.1 and
// Observation 4.3 of the paper): items are classifiers, weights are
// construction costs, values are the aggregated utilities of the queries
// each classifier 1-covers, and the capacity is the budget.
package knapsack

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/guard"
)

// Item is one selectable object. Payload is an opaque caller tag carried
// through to the result (typically an index into a caller-side slice).
type Item struct {
	Value   float64
	Weight  float64
	Payload int
}

// Result is a solved knapsack: the chosen item indices (into the input
// slice, ascending) and their total value and weight.
type Result struct {
	Chosen []int
	Value  float64
	Weight float64
}

// epsilon used for floating-point capacity comparisons.
const feasEps = 1e-9

// SolveGreedy sorts items by value density and takes them while they fit.
// It additionally considers the single most valuable fitting item, which
// restores the classic 2-approximation when the greedy prefix is weak.
func SolveGreedy(items []Item, capacity float64) Result {
	order := make([]int, 0, len(items))
	for i, it := range items {
		if it.Weight <= capacity+feasEps && it.Value > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		da := density(ia)
		db := density(ib)
		if da != db {
			return da > db
		}
		return ia.Value > ib.Value
	})
	var res Result
	remaining := capacity
	for _, i := range order {
		if items[i].Weight <= remaining+feasEps {
			res.Chosen = append(res.Chosen, i)
			res.Value += items[i].Value
			res.Weight += items[i].Weight
			remaining -= items[i].Weight
		}
	}
	// Best single item fallback.
	best, bestVal := -1, res.Value
	for _, i := range order {
		if items[i].Value > bestVal {
			best, bestVal = i, items[i].Value
		}
	}
	if best >= 0 {
		res = Result{Chosen: []int{best}, Value: items[best].Value, Weight: items[best].Weight}
	}
	sort.Ints(res.Chosen)
	return res
}

func density(it Item) float64 {
	if it.Weight <= 0 {
		return math.Inf(1)
	}
	return it.Value / it.Weight
}

// SolveExactInt solves the knapsack exactly by dynamic programming over
// integer weights. Weights must be non-negative integers (after the caller's
// own scaling); non-integer weights are rounded up, which keeps the result
// feasible but possibly suboptimal. The DP costs O(n·capacity) time and
// O(n·capacity) bits of parent-tracking, so use it only for moderate
// capacities; SolveFPTAS covers the rest.
func SolveExactInt(items []Item, capacity int) Result {
	return solveExactIntGuard(nil, items, capacity)
}

func solveExactIntGuard(g *guard.Guard, items []Item, capacity int) Result {
	if capacity < 0 {
		return Result{}
	}
	tb := tables.Get().(*table)
	tb.w = slices.Grow(tb.w[:0], len(items))[:len(items)]
	w := tb.w
	for i, it := range items {
		w[i] = int(math.Ceil(it.Weight - feasEps))
		if w[i] < 0 {
			w[i] = 0
		}
	}
	// dp[c] = best value at weight ≤ c; per-item choice rows are bitsets so
	// the table stays compact (1 bit per cell) even at large capacities.
	// An item with no positive value or heavier than the capacity changes
	// no cell, so its row is neither cleared nor read.
	tb.dp = slices.Grow(tb.dp[:0], capacity+1)[:capacity+1]
	dp := tb.dp
	clear(dp)
	words := (capacity + 64) / 64
	tb.choice = slices.Grow(tb.choice[:0], len(items)*words)[:len(items)*words]
	choice := tb.choice
	used := func(i int) bool { return items[i].Value > 0 && w[i] <= capacity }
	for i, it := range items {
		// Checking once per DP row keeps the overhead off the inner cells;
		// on a trip the greedy answer is always feasible.
		if g.Tripped() {
			tables.Put(tb)
			return SolveGreedy(items, float64(capacity))
		}
		if !used(i) {
			continue
		}
		row := choice[i*words : (i+1)*words]
		clear(row)
		// Cell c = k+w[i] takes item i over src[k] = dp[c-w[i]], downward
		// so that every src cell read is still the previous row's.
		wi := w[i]
		src := dp[:capacity+1-wi]
		dst := dp[wi:]
		dst = dst[:len(src)]
		for k := len(src) - 1; k >= 0; k-- {
			if cand := src[k] + it.Value; cand > dst[k] {
				dst[k] = cand
				c := k + wi
				row[c/64] |= 1 << uint(c%64)
			}
		}
	}
	// Reconstruct, last item first, then copy the picks out in ascending
	// order.
	var res Result
	picked := tb.picked[:0]
	c := capacity
	for i := len(items) - 1; i >= 0; i-- {
		if used(i) && choice[i*words+c/64]&(1<<uint(c%64)) != 0 {
			picked = append(picked, i)
			res.Value += items[i].Value
			res.Weight += items[i].Weight
			c -= w[i]
		}
	}
	if len(picked) > 0 {
		res.Chosen = make([]int, len(picked))
		for j, i := range picked {
			res.Chosen[len(picked)-1-j] = i
		}
	}
	tb.picked = picked
	tables.Put(tb)
	return res
}

// table is the exact DP's working memory, kept across calls through the
// tables pool: the value row, the choice bitsets, the integer weights
// and the reconstructed picks.
type table struct {
	dp     []float64
	choice []uint64
	w      []int
	picked []int
}

var tables = sync.Pool{New: func() any { return new(table) }}

// SolveFPTAS returns a (1+eps)-approximate solution for arbitrary
// non-negative weights and values, via the classic value-scaling dynamic
// program (Theorem 2.3 of the paper, following [65]). eps must be positive;
// values ≤ 0 and items that cannot fit are ignored.
func SolveFPTAS(items []Item, capacity float64, eps float64) Result {
	return solveFPTASGuard(nil, items, capacity, eps)
}

func solveFPTASGuard(g *guard.Guard, items []Item, capacity float64, eps float64) Result {
	if eps <= 0 {
		eps = 0.01
	}
	// Collect usable items.
	idx := make([]int, 0, len(items))
	vmax := 0.0
	for i, it := range items {
		if it.Value > 0 && it.Weight <= capacity+feasEps {
			idx = append(idx, i)
			if it.Value > vmax {
				vmax = it.Value
			}
		}
	}
	if len(idx) == 0 {
		return Result{}
	}
	n := len(idx)
	scale := eps * vmax / float64(n)
	if scale <= 0 {
		scale = 1
	}
	// Scaled integer values; total bounded by n·(n/eps). If the DP table
	// would be too large, coarsen the scale: this trades approximation
	// precision for memory but never loses feasibility.
	const maxCells = 32 << 20
	sv := make([]int, n)
	total := 0
	for {
		total = 0
		for j, i := range idx {
			sv[j] = int(items[i].Value / scale)
			total += sv[j]
		}
		if float64(n)*float64(total+1) <= maxCells {
			break
		}
		scale *= 2
	}
	// minw[v] = minimum weight achieving scaled value exactly v.
	const inf = math.MaxFloat64
	minw := make([]float64, total+1)
	for v := 1; v <= total; v++ {
		minw[v] = inf
	}
	choice := make([][]bool, n)
	for j := range idx {
		if g.Tripped() {
			return SolveGreedy(items, capacity)
		}
		choice[j] = make([]bool, total+1)
		it := items[idx[j]]
		for v := total; v >= sv[j]; v-- {
			if minw[v-sv[j]] == inf {
				continue
			}
			if cand := minw[v-sv[j]] + it.Weight; cand < minw[v] {
				minw[v] = cand
				choice[j][v] = true
			}
		}
	}
	bestV := 0
	for v := total; v >= 0; v-- {
		if minw[v] <= capacity+feasEps {
			bestV = v
			break
		}
	}
	var res Result
	v := bestV
	for j := n - 1; j >= 0; j-- {
		if v >= sv[j] && choice[j][v] {
			i := idx[j]
			res.Chosen = append(res.Chosen, i)
			res.Value += items[i].Value
			res.Weight += items[i].Weight
			v -= sv[j]
		}
	}
	sort.Ints(res.Chosen)
	return res
}

// Solve picks a solver automatically: the exact integer DP when all
// weights are integral and the capacity is small enough for the DP table;
// the FPTAS for moderate item counts; and the density greedy for huge
// inputs, where the value-scaling FPTAS would have to coarsen its grid so
// far that its guarantee evaporates. The greedy's loss is bounded by the
// largest single item value, which is negligible in the BCC regime (many
// small classifiers against a large budget).
func Solve(items []Item, capacity float64, eps float64) Result {
	return SolveGuard(nil, items, capacity, eps)
}

// SolveGuard is Solve with cooperative cancellation: when the guard trips
// mid-DP the solver falls back to the density greedy, whose answer is
// always budget-feasible. A nil guard never trips.
func SolveGuard(g *guard.Guard, items []Item, capacity float64, eps float64) Result {
	guard.Inject("knapsack.solve")
	const maxDPCells = 512 << 20 // bitset rows: 512M cells ≈ 64 MB
	const maxFPTASItems = 3000
	integral := capacity == math.Trunc(capacity)
	for _, it := range items {
		if it.Weight != math.Trunc(it.Weight) {
			integral = false
			break
		}
	}
	if integral && capacity >= 0 &&
		float64(len(items))*(capacity+1) <= maxDPCells {
		return solveExactIntGuard(g, items, int(capacity))
	}
	if len(items) <= maxFPTASItems {
		return solveFPTASGuard(g, items, capacity, eps)
	}
	return SolveGreedy(items, capacity)
}

// BruteForce enumerates all subsets; for tests on tiny inputs only.
func BruteForce(items []Item, capacity float64) Result {
	n := len(items)
	if n > 25 {
		panic("knapsack: BruteForce limited to 25 items")
	}
	var best Result
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += items[i].Value
				w += items[i].Weight
			}
		}
		if w <= capacity+feasEps && v > best.Value {
			best = Result{Value: v, Weight: w}
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					best.Chosen = append(best.Chosen, i)
				}
			}
		}
	}
	return best
}
