package core

import (
	"math"
	"sort"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/wgraph"
)

// pruneClassifiers implements step 1 of Algorithm 1: two pruning rules
// that shrink the candidate classifier set at a provably small cost.
//
// Rule R1 removes every classifier of length r > 1 that can be replaced by
// shorter classifiers (its singletons) whose total cost is at most r times
// its own cost; for uniform costs this collapses the solution space to
// singleton classifiers, as the paper notes. Rule R2 ranks the BCC(2)
// QK-graph nodes by weighted leverage scores (spectral, via power
// iteration with deflation) and drops the low-score tail carrying at most
// a (1 − leverageKeep) fraction of the total edge weight — a bounded
// additive utility error.
//
// Both rules respect the budget-protection exception: a classifier is
// never pruned if that would push some query's cheapest cover above the
// budget while it was affordable before.
//
// The returned mask marks the allowed classifiers by index; the int is
// the number of pruned candidates.
func pruneClassifiers(g *guard.Guard, t *cover.Tracker) ([]bool, int) {
	in := t.Instance()
	cls := in.Classifiers()
	allowed := make([]bool, len(cls))
	for ci := range allowed {
		allowed[ci] = true
	}
	// single[p] is the cost of the singleton classifier {p}, +Inf when it
	// is not in CL. Mask 1<<i picks a query's i-th property alone.
	single := make([]float64, in.NumProperties())
	for qi, q := range in.Queries() {
		table := in.SubsetTable(qi)
		for i, p := range q.Props {
			single[p] = math.Inf(1)
			if ci := table[1<<i-1]; ci >= 0 {
				single[p] = cls[ci].Cost
			}
		}
	}

	// R1: replaceable long classifiers. Stopping early on a tripped guard
	// just prunes less — the allowed mask stays valid.
	for ci, c := range cls {
		if g.Check() {
			break
		}
		r := c.Props.Len()
		if r <= 1 || c.Cost == 0 {
			continue
		}
		sum := 0.0
		feasible := true
		for _, p := range c.Props {
			sc := single[p]
			if math.IsInf(sc, 1) {
				feasible = false
				break
			}
			sum += sc
		}
		if feasible && sum <= float64(r)*c.Cost+1e-9 {
			allowed[ci] = false
		}
	}
	protectCoverability(g, t, allowed)

	// R2: leverage-score pruning of the QK graph.
	sp := buildSubproblems(g, t, allowed, math.Inf(1))
	if qg := sp.graph; qg.NumNodes() >= 32 && qg.NumEdges() > 0 && !g.Tripped() {
		scores := leverageScores(qg, 3, 40)
		order := make([]int, qg.NumNodes())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
		dropBudget := (1 - leverageKeep) * qg.TotalWeight()
		var droppedWeight float64
		for _, v := range order {
			if v == sp.vStar {
				continue // the virtual anchor is no classifier
			}
			w := qg.WeightedDegree(v)
			if droppedWeight+w > dropBudget {
				break
			}
			droppedWeight += w
			allowed[sp.nodeCls[v]] = false
		}
		protectCoverability(g, t, allowed)
	}

	pruned := 0
	for _, ok := range allowed {
		if !ok {
			pruned++
		}
	}
	return allowed, pruned
}

// protectCoverability restores pruned classifiers for any query whose
// cheapest cover became unaffordable under the pruned set while being
// affordable with the full set.
func protectCoverability(g *guard.Guard, t *cover.Tracker, allowed []bool) {
	in := t.Instance()
	budget := in.Budget()
	for qi := range in.Queries() {
		if g.Check() {
			// Fail open: restore everything still un-vetted so a truncated
			// pruning pass can never make a query uncoverable.
			for ci := range allowed {
				allowed[ci] = true
			}
			return
		}
		if t.Covered(qi) {
			continue
		}
		if t.MinCoverCost(qi, allowed) <= budget {
			continue
		}
		if t.MinCoverCost(qi, nil) > budget {
			continue // uncoverable either way
		}
		for _, ci := range in.SubsetTable(qi) {
			if ci >= 0 {
				allowed[ci] = true
			}
		}
	}
}

// leverageScores approximates weighted leverage scores of the adjacency
// matrix: score(v) = Σ_j |λ_j| · u_j[v]², over the top k eigenpairs
// obtained by power iteration with deflation.
func leverageScores(g *wgraph.Graph, k, iters int) []float64 {
	n := g.NumNodes()
	scores := make([]float64, n)
	var basis [][]float64
	var lambdas []float64
	for j := 0; j < k; j++ {
		x := make([]float64, n)
		for i := range x {
			// Deterministic pseudo-random start.
			x[i] = math.Sin(float64(i*(j+3) + 1))
		}
		orthonormalize(x, basis)
		y := make([]float64, n)
		var lambda float64
		for it := 0; it < iters; it++ {
			for i := range y {
				y[i] = 0
			}
			for _, e := range g.Edges() {
				y[e.U] += e.W * x[e.V]
				y[e.V] += e.W * x[e.U]
			}
			orthonormalize(y, basis)
			norm := vecNorm(y)
			if norm < 1e-15 {
				lambda = 0
				break
			}
			lambda = norm
			for i := range x {
				x[i] = y[i] / norm
			}
		}
		if lambda == 0 {
			break
		}
		basis = append(basis, append([]float64(nil), x...))
		lambdas = append(lambdas, lambda)
	}
	for j, u := range basis {
		for v := 0; v < n; v++ {
			scores[v] += lambdas[j] * u[v] * u[v]
		}
	}
	return scores
}

func orthonormalize(x []float64, basis [][]float64) {
	for _, b := range basis {
		var dot float64
		for i := range x {
			dot += x[i] * b[i]
		}
		for i := range x {
			x[i] -= dot * b[i]
		}
	}
}

func vecNorm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
