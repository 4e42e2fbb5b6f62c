// Package wgraph provides the undirected weighted graph used throughout
// the density-problem solvers: nodes carry construction costs, edges carry
// utilities. It is the common input type for the Quadratic Knapsack
// solver (internal/qk), the densest-subgraph solver (internal/densest)
// and A^ECC (internal/ecc), and the graph side of the paper's reductions
// (internal/reduction).
package wgraph

import "fmt"

// Edge is an undirected edge with a non-negative weight.
type Edge struct {
	U, V int
	W    float64
}

type halfEdge struct {
	to  int
	eid int
}

// Graph is an undirected multigraph with node costs and edge weights.
// Parallel edges are permitted (AddEdge merges them by default through
// AddEdgeMerged; use AddEdge for raw appends). Self-loops are rejected.
type Graph struct {
	cost  []float64
	edges []Edge
	adj   [][]halfEdge
	// byKey maps an endpoint pair to its edge index for merged adds. It
	// is nil until the first AddEdgeMerged.
	byKey map[[2]int]int
}

// New returns a graph with n nodes, all of cost 0 and no edges.
func New(n int) *Graph {
	return &Graph{
		cost: make([]float64, n),
		adj:  make([][]halfEdge, n),
	}
}

// FromEdges returns the graph with len(cost) nodes of the given costs and
// the given edges, in order: the graph New, SetCost and AddEdge on each
// edge would build, with the same panics, but built from one degree count
// with every adjacency list carved from one backing array. The graph
// keeps cost and edges; callers must not modify them afterwards.
func FromEdges(cost []float64, edges []Edge) *Graph {
	n := len(cost)
	// start[v+1] counts v's edges, then start[v] is where its list begins.
	start := make([]int, n+1)
	for _, e := range edges {
		checkEdge(e.U, e.V, n)
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	back := make([]halfEdge, start[n])
	adj := make([][]halfEdge, n)
	for v := range adj {
		// Capped at the node's degree, so an AddEdge appends to a copy
		// instead of over the next node's list.
		adj[v] = back[start[v]:start[v]:start[v+1]]
	}
	for id, e := range edges {
		adj[e.U] = append(adj[e.U], halfEdge{to: e.V, eid: id})
		adj[e.V] = append(adj[e.V], halfEdge{to: e.U, eid: id})
	}
	return &Graph{cost: cost, edges: edges, adj: adj}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.cost) }

// NumEdges reports the number of (distinct) edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the edge slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// SetCost assigns a node's cost.
func (g *Graph) SetCost(v int, c float64) { g.cost[v] = c }

// Cost returns a node's cost.
func (g *Graph) Cost(v int) float64 { return g.cost[v] }

// TotalCost returns the sum of costs over the given node set.
func (g *Graph) TotalCost(nodes []int) float64 {
	var sum float64
	for _, v := range nodes {
		sum += g.cost[v]
	}
	return sum
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// AddEdge appends an undirected edge u–v of weight w and returns its index.
// It panics on self-loops and out-of-range endpoints.
func (g *Graph) AddEdge(u, v int, w float64) int {
	checkEdge(u, v, len(g.cost))
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], halfEdge{to: v, eid: id})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, eid: id})
	return id
}

// checkEdge panics on a self-loop or an endpoint outside [0, n).
func checkEdge(u, v, n int) {
	if u == v {
		panic(fmt.Sprintf("wgraph: self-loop on node %d", u))
	}
	if u < 0 || v < 0 || u >= n || v >= n {
		panic(fmt.Sprintf("wgraph: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
}

// AddEdgeMerged adds weight w to the existing u–v edge if one was
// previously added through AddEdgeMerged, creating it otherwise. Use this
// when several logical contributions (e.g. multiple queries 2-covered by
// the same classifier pair) collapse onto one graph edge.
func (g *Graph) AddEdgeMerged(u, v int, w float64) int {
	k := edgeKey(u, v)
	if id, ok := g.byKey[k]; ok {
		g.edges[id].W += w
		return id
	}
	id := g.AddEdge(u, v, w)
	if g.byKey == nil {
		g.byKey = make(map[[2]int]int)
	}
	g.byKey[k] = id
	return id
}

// EdgeWeight returns the total weight of u–v edges (summing parallel
// edges), or 0 if none exist. It scans the smaller adjacency list.
func (g *Graph) EdgeWeight(u, v int) float64 {
	a, b := u, v
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	var sum float64
	for _, h := range g.adj[a] {
		if h.to == b {
			sum += g.edges[h.eid].W
		}
	}
	return sum
}

// Neighbors calls fn(v, w, eid) for every edge incident to u.
func (g *Graph) Neighbors(u int, fn func(v int, w float64, eid int)) {
	for _, h := range g.adj[u] {
		fn(h.to, g.edges[h.eid].W, h.eid)
	}
}

// WeightedDegree returns the sum of weights of edges incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	var sum float64
	for _, h := range g.adj[u] {
		sum += g.edges[h.eid].W
	}
	return sum
}

// InducedWeight returns the total weight of edges with both endpoints in
// the node set marked by in.
func (g *Graph) InducedWeight(in []bool) float64 {
	var sum float64
	for _, e := range g.edges {
		if in[e.U] && in[e.V] {
			sum += e.W
		}
	}
	return sum
}

// InducedWeightOf is InducedWeight for a node list.
func (g *Graph) InducedWeightOf(nodes []int) float64 {
	in := make([]bool, len(g.cost))
	for _, v := range nodes {
		in[v] = true
	}
	return g.InducedWeight(in)
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, e := range g.edges {
		sum += e.W
	}
	return sum
}
