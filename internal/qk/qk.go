// Package qk implements Quadratic Knapsack (QK) solvers: given an
// undirected graph with node costs and edge weights plus a budget B, select
// a node set of total cost ≤ B maximizing the induced edge weight.
//
// QK is the graph formulation of the BCC(2) subproblem (Observation 4.4 of
// the paper): nodes are singleton classifiers, an edge {X,Y} is a query xy
// weighted by its utility, node costs are classifier costs.
//
// Two solvers mirror the paper:
//
//   - SolveHeuristic is A_H^QK (Section 4.1): preprocessing to integer
//     costs in [1, B/2), expensive-node enumeration, log n random
//     bipartitions, a copy blow-up solved by an HkS heuristic (run
//     implicitly in copy-count space for scalability), the two-phase
//     copy-swapping procedure, and the final-selection case analysis of
//     Theorem 4.7.
//   - SolveTheory is A_T^QK, the modified Taylor [62] algorithm with the
//     P1/P2/P3 procedures and the Õ(n^{1/3}) worst-case bound of
//     Lemma 4.6; it is provided as a faithful reference implementation.
//
// SolveGreedy is the density-greedy baseline, and BruteForce the exhaustive
// validator used in tests.
package qk

import (
	"math"
	"sort"
	"sync"

	"repro/internal/guard"
	"repro/internal/wgraph"
)

// Result is a solved QK instance: the selected nodes (sorted), their
// induced edge weight and their total cost.
type Result struct {
	Nodes  []int
	Weight float64
	Cost   float64
}

func resultFor(g *wgraph.Graph, nodes []int) Result {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	return Result{
		Nodes:  sorted,
		Weight: g.InducedWeightOf(sorted),
		Cost:   g.TotalCost(sorted),
	}
}

func better(a, b Result) Result {
	if b.Weight > a.Weight {
		return b
	}
	return a
}

// SolveGreedy grows a solution by repeatedly adding the node with the best
// marginal-weight-to-cost ratio that still fits the budget. Zero-cost nodes
// are always taken, and isolated nodes carry a discounted bootstrap score
// from their best incident edge so heavy pairs can form. It is both the
// baseline reported in the experiments and the safety floor inside
// SolveHeuristic.
func SolveGreedy(g *wgraph.Graph, budget float64) Result {
	var free []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Cost(v) == 0 {
			free = append(free, v)
		}
	}
	return resultFor(g, greedyGrow(nil, g, budget, free))
}

// greedyGrow extends start (taken as already selected, its cost counted)
// with the best marginal weight-per-cost additions until the budget is
// exhausted, taking at each step the first node in canonical order
// (score desc, node asc) among those that still fit. Every gain change
// pushes an entry at the new score, so a popped entry whose score has
// moved is stale and dropped. The remaining budget only shrinks, so a
// node that does not fit is never pushed and is dropped on pop once it
// stops fitting; under a total order that cannot change which fitting
// node pops next (DESIGN.md §5).
func greedyGrow(gu *guard.Guard, g *wgraph.Graph, budget float64, start []int) []int {
	s := growers.Get().(*grower)
	n := g.NumNodes()
	in := reset(&s.in, n)
	gain := reset(&s.gain, n)
	boot := reset(&s.boot, n)
	var cost float64
	out := make([]int, 0, len(start))
	for _, v := range start {
		if !in[v] {
			in[v] = true
			cost += g.Cost(v)
			out = append(out, v)
		}
	}
	for _, e := range g.Edges() {
		switch {
		case in[e.U] && !in[e.V]:
			gain[e.V] += e.W
		case in[e.V] && !in[e.U]:
			gain[e.U] += e.W
		}
		if e.W/4 > boot[e.U] {
			boot[e.U] = e.W / 4
		}
		if e.W/4 > boot[e.V] {
			boot[e.V] = e.W / 4
		}
	}
	score := func(v int) float64 {
		gv := gain[v]
		if gv == 0 {
			gv = boot[v]
		}
		if gv <= 0 {
			return 0
		}
		return gv / math.Max(g.Cost(v), 1e-9)
	}
	fits := func(v int) bool { return g.Cost(v) <= budget-cost+1e-9 }
	h := s.heap[:0]
	for v := 0; v < n; v++ {
		if !in[v] && fits(v) {
			if sc := score(v); sc > 0 {
				h = append(h, candidate{v, sc})
			}
		}
	}
	h.init()
	for len(h) > 0 {
		if gu.Check() {
			break
		}
		e := h.pop()
		v := e.v
		if in[v] || e.score != score(v) || !fits(v) {
			continue
		}
		in[v] = true
		cost += g.Cost(v)
		out = append(out, v)
		g.Neighbors(v, func(u int, w float64, _ int) {
			if !in[u] {
				gain[u] += w
				if sc := score(u); sc > 0 && fits(u) {
					h.push(candidate{u, sc})
				}
			}
		})
	}
	s.heap = h
	growers.Put(s)
	return out
}

// grower is greedyGrow's scratch: its per-node arrays and the heap's
// backing slice, kept across calls. Restart workers complete candidates
// concurrently, so growers come from a pool.
type grower struct {
	in         []bool
	gain, boot []float64
	heap       maxHeap
}

var growers = sync.Pool{New: func() any { return new(grower) }}

// reset resizes *buf to n zeroed elements, reusing its storage when it is
// large enough, and returns it.
func reset[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// BruteForce enumerates all node subsets; for tests on tiny graphs only.
func BruteForce(g *wgraph.Graph, budget float64) Result {
	n := g.NumNodes()
	if n > 22 {
		panic("qk: BruteForce limited to 22 nodes")
	}
	var best Result
	nodes := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		nodes = nodes[:0]
		var cost float64
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				nodes = append(nodes, v)
				cost += g.Cost(v)
			}
		}
		if cost > budget+1e-9 {
			continue
		}
		if w := g.InducedWeightOf(nodes); w > best.Weight {
			best = Result{Nodes: append([]int(nil), nodes...), Weight: w, Cost: cost}
		}
	}
	return best
}
