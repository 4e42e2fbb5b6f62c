package wgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func triangle() *Graph {
	g := New(3)
	g.SetCost(0, 1)
	g.SetCost(1, 2)
	g.SetCost(2, 3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 20)
	g.AddEdge(0, 2, 30)
	return g
}

func TestBasicAccounting(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size = (%d,%d), want (3,3)", g.NumNodes(), g.NumEdges())
	}
	if g.TotalWeight() != 60 {
		t.Fatalf("TotalWeight = %v, want 60", g.TotalWeight())
	}
	if got := g.TotalCost([]int{0, 2}); got != 4 {
		t.Fatalf("TotalCost = %v, want 4", got)
	}
	if g.WeightedDegree(1) != 30 {
		t.Fatalf("WeightedDegree(1) = %v, want 30", g.WeightedDegree(1))
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2).AddEdge(0, 5, 1)
}

func TestAddEdgeMerged(t *testing.T) {
	g := New(3)
	g.AddEdgeMerged(0, 1, 5)
	g.AddEdgeMerged(1, 0, 7) // same undirected edge
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.EdgeWeight(0, 1) != 12 {
		t.Fatalf("EdgeWeight = %v, want 12", g.EdgeWeight(0, 1))
	}
	if g.EdgeWeight(0, 2) != 0 {
		t.Fatalf("EdgeWeight(0,2) = %v, want 0", g.EdgeWeight(0, 2))
	}
}

func TestInducedWeight(t *testing.T) {
	g := triangle()
	in := []bool{true, true, false}
	if got := g.InducedWeight(in); got != 10 {
		t.Fatalf("InducedWeight = %v, want 10", got)
	}
	if got := g.InducedWeightOf([]int{0, 1, 2}); got != 60 {
		t.Fatalf("InducedWeightOf = %v, want 60", got)
	}
	if got := g.WeightedDegreeInto(2, in); got != 50 {
		t.Fatalf("WeightedDegreeInto = %v, want 50", got)
	}
}

func TestSubgraph(t *testing.T) {
	g := triangle()
	sub, oldToNew, newToOld := g.Subgraph([]bool{true, false, true})
	if sub.NumNodes() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("subgraph size = (%d,%d), want (2,1)", sub.NumNodes(), sub.NumEdges())
	}
	if sub.TotalWeight() != 30 {
		t.Fatalf("subgraph weight = %v, want 30", sub.TotalWeight())
	}
	if oldToNew[1] != -1 {
		t.Fatal("dropped node should map to -1")
	}
	if g.Cost(newToOld[0]) != sub.Cost(0) {
		t.Fatal("costs not preserved")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.SetCost(0, 99)
	c.AddEdge(0, 1, 1)
	if g.Cost(0) == 99 || g.NumEdges() == c.NumEdges() {
		t.Fatal("Clone aliases original")
	}
}

func TestNeighborsIteration(t *testing.T) {
	g := triangle()
	var sum float64
	seen := map[int]bool{}
	g.Neighbors(0, func(v int, w float64, eid int) {
		sum += w
		seen[v] = true
	})
	if sum != 40 || !seen[1] || !seen[2] {
		t.Fatalf("Neighbors(0): sum=%v seen=%v", sum, seen)
	}
}

func TestValidate(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph failed: %v", err)
	}
}

func TestInducedWeightConsistency(t *testing.T) {
	// Property: InducedWeight(S) = (Σ_{v∈S} WeightedDegreeInto(v,S)) / 2.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(u, v, float64(1+rng.Intn(9)))
				}
			}
		}
		in := make([]bool, n)
		for v := range in {
			in[v] = rng.Intn(2) == 0
		}
		var half float64
		for v := 0; v < n; v++ {
			if in[v] {
				half += g.WeightedDegreeInto(v, in)
			}
		}
		if w := g.InducedWeight(in); w*2 != half {
			t.Fatalf("trial %d: induced %v, half-sum %v", trial, w, half)
		}
	}
}

func BenchmarkInducedWeight(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 2000
	g := New(n)
	for i := 0; i < 20000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, rng.Float64())
		}
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = rng.Intn(2) == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.InducedWeight(in)
	}
}

// neighborList is every node's Neighbors sequence, for comparing graphs.
func neighborList(g *Graph) [][]Edge {
	out := make([][]Edge, g.NumNodes())
	for u := range out {
		g.Neighbors(u, func(v int, w float64, eid int) {
			out[u] = append(out[u], Edge{U: v, V: eid, W: w})
		})
	}
	return out
}

// sameGraph fails unless a and b have the same costs, the same edges in
// order (weights bit for bit), the same degrees and the same Neighbors
// sequences.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || !reflect.DeepEqual(a.cost, b.cost) {
		t.Fatalf("costs %v, want %v", a.cost, b.cost)
	}
	if !slices.Equal(a.Edges(), b.Edges()) {
		t.Fatalf("edges %v, want %v", a.Edges(), b.Edges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("node %d: degree %d, want %d", v, a.Degree(v), b.Degree(v))
		}
	}
	if na, nb := neighborList(a), neighborList(b); !reflect.DeepEqual(na, nb) {
		t.Fatalf("neighbours %v, want %v", na, nb)
	}
}

// panicOf runs fn and returns what it panicked with, nil if nothing.
func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12)
		cost := make([]float64, n)
		for v := range cost {
			cost[v] = float64(rng.Intn(5)) / 3
		}
		var edges []Edge
		for i := rng.Intn(30); i > 0 && n > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if trial%10 != 0 && u == v {
				continue
			}
			if trial%25 == 1 {
				v = n + rng.Intn(3) // out of range
			}
			edges = append(edges, Edge{U: u, V: v, W: float64(rng.Intn(7)) / 7})
		}
		var want *Graph
		wantP := panicOf(func() {
			want = New(n)
			for v, c := range cost {
				want.SetCost(v, c)
			}
			for _, e := range edges {
				want.AddEdge(e.U, e.V, e.W)
			}
		})
		var got *Graph
		gotP := panicOf(func() { got = FromEdges(slices.Clone(cost), slices.Clone(edges)) })
		if gotP != wantP {
			t.Fatalf("trial %d: FromEdges panicked with %v, AddEdge with %v", trial, gotP, wantP)
		}
		if wantP != nil {
			continue
		}
		sameGraph(t, got, want)
		// A later AddEdge extends one node's list without touching the
		// next node's, which shares the backing array.
		if n >= 2 {
			got.AddEdge(0, 1, 1)
			want.AddEdge(0, 1, 1)
			sameGraph(t, got, want)
		}
	}
}

func TestCloneAndSubgraphWithAndWithoutMergedEdges(t *testing.T) {
	for _, merged := range []bool{false, true} {
		g := New(4)
		for v := 0; v < 4; v++ {
			g.SetCost(v, float64(v))
		}
		g.AddEdge(0, 1, 1)
		g.AddEdge(2, 3, 2)
		if merged {
			g.AddEdgeMerged(1, 2, 3)
			g.AddEdgeMerged(2, 1, 4)
		}
		c := g.Clone()
		sameGraph(t, c, g)
		// A merged add on the clone merges into the edges it inherited
		// through AddEdgeMerged, and leaves the original alone.
		c.AddEdgeMerged(1, 2, 5)
		g2 := g.Clone()
		g2.AddEdgeMerged(1, 2, 5)
		sameGraph(t, c, g2)
		if merged && (c.NumEdges() != 3 || c.EdgeWeight(1, 2) != 12 || g.EdgeWeight(1, 2) != 7) {
			t.Fatalf("merged clone: %d edges, weight %v (original %v)", c.NumEdges(), c.EdgeWeight(1, 2), g.EdgeWeight(1, 2))
		}
		if !merged && (c.NumEdges() != 3 || c.EdgeWeight(1, 2) != 5) {
			t.Fatalf("plain clone: %d edges, weight %v", c.NumEdges(), c.EdgeWeight(1, 2))
		}
		sub, _, _ := g.Subgraph([]bool{false, true, true, true})
		wantW := 2.0
		if merged {
			wantW = 9
		}
		if sub.NumNodes() != 3 || sub.TotalWeight() != wantW {
			t.Fatalf("subgraph: %d nodes, weight %v, want 3 and %v", sub.NumNodes(), sub.TotalWeight(), wantW)
		}
		sub.AddEdgeMerged(0, 1, 1)
		if merged && sub.NumEdges() != 2 {
			t.Fatalf("subgraph merged add made %d edges, want 2", sub.NumEdges())
		}
	}
}
