// Package qk implements Quadratic Knapsack (QK) solvers: given an
// undirected graph with node costs and edge weights plus a budget B, select
// a node set of total cost ≤ B maximizing the induced edge weight.
//
// QK is the graph formulation of the BCC(2) subproblem (Observation 4.4 of
// the paper): nodes are singleton classifiers, an edge {X,Y} is a query xy
// weighted by its utility, node costs are classifier costs.
//
// SolveHeuristic is the paper's A_H^QK (Section 4.1): preprocessing to
// integer costs in [1, B/2), expensive-node enumeration, log n random
// bipartitions, a copy blow-up solved by an HkS heuristic (run implicitly
// in copy-count space for scalability), the two-phase copy-swapping
// procedure, and the final-selection case analysis of Theorem 4.7. The
// paper's theoretical A_T^QK (Lemma 4.6) is not implemented: put in
// A^BCC in place of A_H^QK, it took 3.4× the solve time for 0.07% less
// utility (EXPERIMENTS.md, "retired paths").
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

// resultFor scores a node set. The induced weight is summed in edge
// order, as wgraph's InducedWeightOf does, over a membership mask
// borrowed from the growers pool: every restart scores its candidates
// with it.
func resultFor(g *wgraph.Graph, nodes []int) Result {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	s := growers.Get().(*grower)
	in := reset(&s.in, g.NumNodes())
	for _, v := range sorted {
		in[v] = true
	}
	w := g.InducedWeight(in)
	growers.Put(s)
	return Result{
		Nodes:  sorted,
		Weight: w,
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
	return solveGreedy(g, newOrders(g, budget), budget)
}

// solveGreedy is SolveGreedy with g's orders (newOrders) supplied by a
// caller that shares them with other completions on the same graph.
func solveGreedy(g *wgraph.Graph, o *orders, budget float64) Result {
	var free []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Cost(v) == 0 {
			free = append(free, v)
		}
	}
	return resultFor(g, greedyGrow(nil, g, o, budget, free))
}

// orders is what every greedy completion of one QK call shares
// read-only: per-node bootstrap scores and weights into the zero-cost
// nodes, and three node orders that the completions walk instead of
// pricing every node. Solvers build it once per graph and budget
// (newOrders) and share it with every completion and restart worker.
//
// A node none of whose neighbours a completion has selected, beyond a
// base set, scores a constant that depends only on the graph: its
// weight into the zero-cost nodes when the start holds all of them
// (withFree), or else its bootstrap score (bootOnly). Every order leaves
// out the nodes that cost more than the budget, which no completion of
// the call can add.
type orders struct {
	nFree int       // number of zero-cost nodes
	boot  []float64 // per node: its heaviest incident weight / 4
	free  []float64 // per node: its weight into the zero-cost nodes, summed in edge order
	// cost holds the nodes by ascending cost (the key), ties to the lower
	// node: the order in which greedyGrow looks for the cheapest node it
	// may still add.
	cost []candidate
	// withFree and bootOnly hold the nodes with a positive score by that
	// score in canonical order (score desc, node asc). withFree scores a
	// node with every zero-cost node selected and leaves those out.
	withFree, bootOnly []candidate
	wf                 []candidate // withFree's own storage, for build
}

// newOrders builds g's orders for completions within budget on fresh
// storage (see build).
func newOrders(g *wgraph.Graph, budget float64) *orders {
	o := new(orders)
	o.build(g, budget, new([]candidate))
	return o
}

// build makes o g's orders for completions within budget, reusing o's
// storage: one pass over the edges for the per-node weights, one over the
// nodes for the (key, node) pairs, then a radix sort of each list with
// *buf as its second array.
func (o *orders) build(g *wgraph.Graph, budget float64, buf *[]candidate) {
	n := g.NumNodes()
	o.nFree = 0
	boot, free := reset(&o.boot, n), reset(&o.free, n)
	o.cost, o.bootOnly, o.withFree = empty(&o.cost, n), empty(&o.bootOnly, n), empty(&o.wf, n)
	for _, e := range g.Edges() {
		zu, zv := g.Cost(e.U) == 0, g.Cost(e.V) == 0
		if zu && !zv {
			free[e.V] += e.W
		}
		if zv && !zu {
			free[e.U] += e.W
		}
		if e.W/4 > boot[e.U] {
			boot[e.U] = e.W / 4
		}
		if e.W/4 > boot[e.V] {
			boot[e.V] = e.W / 4
		}
	}
	for v := 0; v < n; v++ {
		c := g.Cost(v)
		if c == 0 {
			o.nFree++
		}
		if !(c <= budget+1e-9) {
			continue
		}
		o.cost = append(o.cost, candidate{v, math.Abs(c)}) // -0 sorts as 0
		if sc := growScore(0, boot[v], c); sc > 0 {
			o.bootOnly = append(o.bootOnly, candidate{v, sc})
		}
		if sc := growScore(free[v], boot[v], c); sc > 0 && c != 0 {
			o.withFree = append(o.withFree, candidate{v, sc})
		}
	}
	tmp := grow(buf, len(o.cost))
	radixSort(o.cost, false, tmp)
	radixSort(o.bootOnly, true, tmp)
	if o.nFree == 0 {
		o.withFree = o.bootOnly // no weight into zero-cost nodes: the same scores
	} else {
		radixSort(o.withFree, true, tmp)
	}
}

// growScore is a completion's score for a node of cost c whose weight
// into the selection is gain: gain per cost, or the bootstrap score boot
// per cost while gain is 0.
func growScore(gain, boot, c float64) float64 {
	if gain == 0 {
		gain = boot
	}
	if gain <= 0 {
		return 0
	}
	return gain / math.Max(c, 1e-9)
}

// greedyGrow extends start (taken as already selected, its cost counted)
// with the best marginal weight-per-cost additions until the budget is
// exhausted, taking at each step the first node in canonical order
// (score desc, node asc) among those that still fit: the budgeted greedy
// of Feldman & Nutov.
//
// It prices only the nodes the selection touches (DESIGN.md §5). With
// every zero-cost node in start, those nodes form the base set and an
// untouched node scores its withFree score; otherwise the base set is
// empty and it scores its bootstrap score. The neighbours of start's
// nodes outside the base set are priced from their adjacency lists,
// which are in edge order, so their gains have the bits an edge scan
// gives. Touched nodes live in a lazy max-heap: every gain change pushes
// an entry at the new score, so a popped entry whose score has moved is
// stale and dropped. Each step takes the better of the heap's top and
// the first untouched node of the static order, under the same total
// order. The remaining budget only shrinks, so a node that does not fit
// is never pushed, is dropped once it stops fitting, and is passed over
// for good on the static walk.
//
// The loop stops as soon as the cheapest node on o.cost that is
// unselected and has a positive score no longer fits: the budget only
// shrinks, and with non-negative weights a node scores 0 only when it
// has no positive-weight edge, so it never gains a score; no later step
// could add a node.
func greedyGrow(gu *guard.Guard, g *wgraph.Graph, o *orders, budget float64, start []int) []int {
	s := growers.Get().(*grower)
	n := g.NumNodes()
	in := reset(&s.in, n)
	touched := reset(&s.touched, n)
	gain := grow(&s.gain, n) // gain[v] is live only where touched[v]
	var cost float64
	out := make([]int, 0, len(start))
	free := 0
	for _, v := range start {
		if !in[v] {
			in[v] = true
			cost += g.Cost(v)
			out = append(out, v)
			if g.Cost(v) == 0 {
				free++
			}
		}
	}
	static, base := o.bootOnly, []float64(nil)
	if free == o.nFree {
		static, base = o.withFree, o.free
	}
	// baseGain is an untouched node's weight into the selection.
	baseGain := func(v int) float64 {
		if base == nil {
			return 0
		}
		return base[v]
	}
	score := func(v int) float64 {
		if touched[v] {
			return growScore(gain[v], o.boot[v], g.Cost(v))
		}
		return growScore(baseGain(v), o.boot[v], g.Cost(v))
	}
	fits := func(v int) bool { return g.Cost(v) <= budget-cost+1e-9 }
	h := s.heap[:0]
	for _, v := range out {
		if base != nil && g.Cost(v) == 0 {
			continue // its weight is in every node's base gain
		}
		g.Neighbors(v, func(u int, _ float64, _ int) {
			if in[u] || touched[u] {
				return
			}
			touched[u] = true
			var sum float64
			g.Neighbors(u, func(x int, w float64, _ int) {
				if in[x] {
					sum += w
				}
			})
			gain[u] = sum
			if sc := score(u); sc > 0 && fits(u) {
				h = append(h, candidate{u, sc})
			}
		})
	}
	h.init()
	next := 0 // o.cost[next:] holds every node that may still be added
	walk := 0 // static[walk:] holds every untouched node that may still be added
	for {
		for next < len(o.cost) && (in[o.cost[next].v] || score(o.cost[next].v) == 0) {
			next++
		}
		if next == len(o.cost) || !fits(o.cost[next].v) || gu.Check() {
			break
		}
		for len(h) > 0 && (in[h[0].v] || h[0].score != score(h[0].v) || !fits(h[0].v)) {
			h.pop()
		}
		for walk < len(static) && (in[static[walk].v] || touched[static[walk].v] || !fits(static[walk].v)) {
			walk++
		}
		var v int
		if walk < len(static) && (len(h) == 0 || static[walk].before(h[0])) {
			v = static[walk].v
			walk++
		} else if len(h) > 0 {
			v = h.pop().v
		} else {
			break
		}
		in[v] = true
		cost += g.Cost(v)
		out = append(out, v)
		g.Neighbors(v, func(u int, w float64, _ int) {
			if in[u] {
				return
			}
			if !touched[u] {
				touched[u] = true
				gain[u] = baseGain(u)
			}
			gain[u] += w
			if sc := score(u); sc > 0 && fits(u) {
				h.push(candidate{u, sc})
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
	in, touched []bool
	gain        []float64
	heap        maxHeap
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

// grow is reset without the clearing, for arrays whose stale entries
// are never read.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// empty empties *buf, giving it room for n elements, and returns it.
func empty[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, 0, n)
	}
	*buf = (*buf)[:0]
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
