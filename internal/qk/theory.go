package qk

import (
	"math"
	"sort"

	"repro/internal/dks"
	"repro/internal/wgraph"
)

// SolveTheory is A_T^QK: the Õ(n^{1/3})-approximation of Lemma 4.6,
// obtained by modifying Taylor's Õ(n^{0.4}) Quadratic Knapsack algorithm
// [62]. It normalizes weights and costs, partitions the edges into
// O(log³ n) class subgraphs G_{i,j,t} (cost class 2^i × cost class 2^j ×
// weight class 2^t), solves each subgraph — by DkS when i = j, and by the
// best of the three procedures P1 (top degrees), P2 (copy blow-up + DkS)
// and P3 (best single right node plus its neighborhood) when i > j — and
// returns the best subgraph solution found.
//
// It exists as a faithful reference implementation of the worst-case
// algorithm; SolveHeuristic dominates it on practical inputs and is the
// solver used by the BCC pipeline.
func SolveTheory(g *wgraph.Graph, budget float64, opts Options) Result {
	n := g.NumNodes()
	opts = opts.withDefaults(n)
	o := newOrders(g, budget)
	best := solveGreedy(g, o, budget)
	if n == 0 || g.NumEdges() == 0 || budget <= 0 {
		return best
	}

	// Weight normalization: divide by wmax/n², drop weights < 1, round
	// down to powers of two. We keep the original weights for evaluation
	// and only use the classes for partitioning.
	wmax := 0.0
	for _, e := range g.Edges() {
		if g.Cost(e.U) <= budget && g.Cost(e.V) <= budget &&
			g.Cost(e.U)+g.Cost(e.V) <= budget && e.W > wmax {
			wmax = e.W
		}
	}
	if wmax == 0 {
		return best
	}
	wScale := wmax / (float64(n) * float64(n))

	// Cost normalization: divide costs and budget by B/n, then take all
	// nodes of normalized cost ≤ 1 if that fits half the budget; round the
	// rest up to powers of two.
	cScale := budget / float64(n)
	normCost := func(v int) float64 { return g.Cost(v) / cScale }

	// Cheap nodes (normalized cost ≤ 1) are taken upfront when affordable
	// as a group within half the budget.
	var cheap []int
	var cheapCost float64
	for v := 0; v < n; v++ {
		if normCost(v) <= 1 {
			cheap = append(cheap, v)
			cheapCost += g.Cost(v)
		}
	}
	if cheapCost > budget/2 {
		// Keep only the highest-degree cheap nodes within half the budget.
		sort.Slice(cheap, func(i, j int) bool {
			return g.WeightedDegree(cheap[i]) > g.WeightedDegree(cheap[j])
		})
		var kept []int
		var cost float64
		for _, v := range cheap {
			if cost+g.Cost(v) <= budget/2 {
				kept = append(kept, v)
				cost += g.Cost(v)
			}
		}
		cheap = kept
	}
	best = better(best, resultFor(g, greedyGrow(nil, g, o, budget, cheap)))

	classOf := func(x float64) int {
		if x <= 1 {
			return 0
		}
		return int(math.Floor(math.Log2(x)))
	}

	// Partition edges into class subgraphs.
	type key struct{ i, j, t int }
	groups := make(map[key][]wgraph.Edge)
	for _, e := range g.Edges() {
		cu, cv := normCost(e.U), normCost(e.V)
		if g.Cost(e.U) > budget || g.Cost(e.V) > budget ||
			g.Cost(e.U)+g.Cost(e.V) > budget {
			continue // this edge can never be covered
		}
		wn := e.W / wScale
		if wn < 1 {
			continue // normalization discards tiny weights
		}
		i, j := classOf(cu), classOf(cv)
		u, v := e.U, e.V
		if i < j {
			i, j = j, i
			u, v = v, u
		}
		groups[key{i, j, classOf(wn)}] = append(groups[key{i, j, classOf(wn)}],
			wgraph.Edge{U: u, V: v, W: e.W})
	}

	for k, edges := range groups {
		var cand []int
		if k.i == k.j {
			cand = solveUniformClass(g, edges, budget)
		} else {
			cand = solveBipartiteClass(g, edges, budget, opts)
		}
		if len(cand) > 0 {
			cand = greedyGrow(nil, g, o, budget, cand)
			best = better(best, resultFor(g, cand))
		}
	}
	return best
}

// solveUniformClass handles G_{i,i,t}: all node costs in one power-of-two
// class, so the budget becomes a cardinality bound and DkS applies.
func solveUniformClass(g *wgraph.Graph, edges []wgraph.Edge, budget float64) []int {
	sub, toOld := classSubgraph(g, edges)
	// Cardinality bound: the cheapest node cost in the class lower-bounds
	// everyone (same class ⇒ within 2×); being conservative keeps
	// feasibility.
	maxCost := 0.0
	for v := 0; v < sub.NumNodes(); v++ {
		if c := sub.Cost(v); c > maxCost {
			maxCost = c
		}
	}
	if maxCost <= 0 {
		maxCost = 1
	}
	k := int(budget / maxCost)
	if k < 2 {
		k = 2
	}
	picked := dks.Solve(sub, k, dks.Options{Seed: 11})
	return trimToBudget(sub, picked, budget, toOld)
}

// solveBipartiteClass handles G_{i,j,t} with i > j: a bipartite graph with
// unit-class L costs and heavier R costs, solved by the best of P1, P2, P3.
func solveBipartiteClass(g *wgraph.Graph, edges []wgraph.Edge, budget float64, opts Options) []int {
	sub, toOld := classSubgraph(g, edges)
	nSub := sub.NumNodes()
	// L = cheaper endpoints, R = costlier endpoints (by construction edge.U
	// is the costlier class). Mark sides from the edge orientation.
	inR := make([]bool, nSub)
	oldToNew := make(map[int]int, nSub)
	for i, old := range toOld {
		oldToNew[old] = i
	}
	for _, e := range edges {
		inR[oldToNew[e.U]] = true
	}
	// Representative costs.
	var wR, cL float64 = 1, 1
	for v := 0; v < nSub; v++ {
		if inR[v] {
			if sub.Cost(v) > wR {
				wR = sub.Cost(v)
			}
		} else if sub.Cost(v) > cL {
			cL = sub.Cost(v)
		}
	}

	var bestNodes []int
	bestW := -1.0
	consider := func(nodes []int) {
		nodes = trimToBudgetLocal(sub, nodes, budget)
		if w := sub.InducedWeightOf(nodes); w > bestW {
			bestW = w
			bestNodes = nodes
		}
	}

	// P1: top-degree R nodes within half the budget, then top-degree-into-R′
	// L nodes with the other half.
	consider(procP1(sub, inR, budget, wR, cL))
	// P2: blow up R nodes into copies, DkS, then refill R by degree into L″.
	consider(procP2(sub, inR, budget, wR, cL, opts))
	// P3: the single best R node plus as many of its L neighbors as fit.
	consider(procP3(sub, inR, budget))

	out := make([]int, len(bestNodes))
	for i, v := range bestNodes {
		out[i] = toOld[v]
	}
	return out
}

func procP1(sub *wgraph.Graph, inR []bool, budget, wR, cL float64) []int {
	n := sub.NumNodes()
	var rNodes, lNodes []int
	for v := 0; v < n; v++ {
		if inR[v] {
			rNodes = append(rNodes, v)
		} else {
			lNodes = append(lNodes, v)
		}
	}
	sort.Slice(rNodes, func(i, j int) bool {
		return sub.WeightedDegree(rNodes[i]) > sub.WeightedDegree(rNodes[j])
	})
	takeR := int(budget / (2 * wR))
	if takeR < 1 {
		takeR = 1
	}
	if takeR > len(rNodes) {
		takeR = len(rNodes)
	}
	rSel := rNodes[:takeR]
	mark := make([]bool, n)
	for _, v := range rSel {
		mark[v] = true
	}
	sort.Slice(lNodes, func(i, j int) bool {
		return sub.WeightedDegreeInto(lNodes[i], mark) > sub.WeightedDegreeInto(lNodes[j], mark)
	})
	takeL := int(budget / (2 * cL))
	if takeL > len(lNodes) {
		takeL = len(lNodes)
	}
	return append(append([]int(nil), rSel...), lNodes[:takeL]...)
}

func procP2(sub *wgraph.Graph, inR []bool, budget, wR, cL float64, opts Options) []int {
	// Implicit blow-up: run DkS on a graph where each R node is divided
	// into w copies; equivalently scale R incident edge weights by 1/w and
	// allow selecting R nodes fractionally. We approximate with the
	// count-space greedy from the heuristic solver.
	n := sub.NumNodes()
	active := make([]bool, n)
	cint := make([]int, n)
	side := make([]bool, n)
	for v := 0; v < n; v++ {
		active[v] = true
		side[v] = !inR[v]
		if inR[v] {
			cint[v] = int(math.Max(1, math.Round(wR/cL)))
		} else {
			cint[v] = 1
		}
	}
	st := newCountState(sub, active, side, cint, make([]float64, n))
	k := int(budget / cL)
	st.greedyFill(nil, k)
	st.refill(true)
	st.refill(false)
	var out []int
	for v := 0; v < n; v++ {
		if st.s[v] == cint[v] && st.s[v] > 0 {
			out = append(out, v)
		}
	}
	return out
}

func procP3(sub *wgraph.Graph, inR []bool, budget float64) []int {
	n := sub.NumNodes()
	bestR, bestDeg := -1, -1.0
	for v := 0; v < n; v++ {
		if inR[v] && sub.Cost(v) <= budget {
			if d := sub.WeightedDegree(v); d > bestDeg {
				bestR, bestDeg = v, d
			}
		}
	}
	if bestR < 0 {
		return nil
	}
	out := []int{bestR}
	remaining := budget - sub.Cost(bestR)
	type nb struct {
		v int
		w float64
	}
	var nbs []nb
	sub.Neighbors(bestR, func(u int, w float64, _ int) {
		nbs = append(nbs, nb{u, w})
	})
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].w > nbs[j].w })
	seen := map[int]bool{bestR: true}
	for _, x := range nbs {
		if seen[x.v] {
			continue
		}
		if c := sub.Cost(x.v); c <= remaining {
			out = append(out, x.v)
			remaining -= c
			seen[x.v] = true
		}
	}
	return out
}

// classSubgraph builds the subgraph induced by the given edges with merged
// parallel weights, returning it and the new→old node mapping.
func classSubgraph(g *wgraph.Graph, edges []wgraph.Edge) (*wgraph.Graph, []int) {
	keep := make([]bool, g.NumNodes())
	for _, e := range edges {
		keep[e.U] = true
		keep[e.V] = true
	}
	oldToNew := make([]int, g.NumNodes())
	var toOld []int
	for v := range keep {
		if keep[v] {
			oldToNew[v] = len(toOld)
			toOld = append(toOld, v)
		} else {
			oldToNew[v] = -1
		}
	}
	sub := wgraph.New(len(toOld))
	for i, old := range toOld {
		sub.SetCost(i, g.Cost(old))
	}
	for _, e := range edges {
		sub.AddEdgeMerged(oldToNew[e.U], oldToNew[e.V], e.W)
	}
	return sub, toOld
}

// trimToBudget drops the lowest-contribution nodes until the set fits the
// budget, then maps to original IDs.
func trimToBudget(sub *wgraph.Graph, nodes []int, budget float64, toOld []int) []int {
	nodes = trimToBudgetLocal(sub, nodes, budget)
	out := make([]int, len(nodes))
	for i, v := range nodes {
		out[i] = toOld[v]
	}
	return out
}

func trimToBudgetLocal(sub *wgraph.Graph, nodes []int, budget float64) []int {
	cur := append([]int(nil), nodes...)
	for {
		var cost float64
		for _, v := range cur {
			cost += sub.Cost(v)
		}
		if cost <= budget+1e-9 || len(cur) == 0 {
			return cur
		}
		in := make([]bool, sub.NumNodes())
		for _, v := range cur {
			in[v] = true
		}
		worstI, worstScore := 0, math.Inf(1)
		for i, v := range cur {
			score := sub.WeightedDegreeInto(v, in) / math.Max(sub.Cost(v), 1e-9)
			if score < worstScore {
				worstI, worstScore = i, score
			}
		}
		cur[worstI] = cur[len(cur)-1]
		cur = cur[:len(cur)-1]
	}
}
