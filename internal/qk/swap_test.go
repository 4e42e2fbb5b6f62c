package qk

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wgraph"
)

// literalSwapPhases implements the paper's two swap phases verbatim (in
// copy-count space) for one side of the bipartition:
//
//	phase 1: while a selected copy of node b and a non-selected copy of a
//	         different node a with strictly higher per-copy weighted degree
//	         exist, move one unit from b to a;
//	phase 2: fix an order over the partially selected nodes and move units
//	         from lower- to higher-position nodes.
//
// Our production code computes the fixed point of these phases directly
// (countState.refill); this reference exists to validate that shortcut.
func literalSwapPhases(st *countState, left bool) {
	n := len(st.s)
	onSide := func(v int) bool { return st.active[v] && st.side[v] == left }
	// Phase 1.
	for {
		moved := false
		for b := 0; b < n && !moved; b++ {
			if !onSide(b) || st.s[b] == 0 {
				continue
			}
			db := st.perCopyDeg(b)
			for a := 0; a < n; a++ {
				if a == b || !onSide(a) || st.s[a] >= st.c[a] {
					continue
				}
				if st.perCopyDeg(a) > db+1e-12 {
					st.s[b]--
					st.s[a]++
					moved = true
					break
				}
			}
		}
		if !moved {
			break
		}
	}
	// Phase 2: arbitrary fixed order = ascending node index.
	for {
		moved := false
		var partials []int
		for v := 0; v < n; v++ {
			if onSide(v) && st.s[v] > 0 && st.s[v] < st.c[v] {
				partials = append(partials, v)
			}
		}
		for i := 0; i < len(partials) && !moved; i++ {
			for j := i + 1; j < len(partials); j++ {
				lo, hi := partials[i], partials[j]
				// Move units from the lower-position to the higher-position
				// node (as long as both remain movable).
				if st.s[lo] > 0 && st.s[hi] < st.c[hi] {
					st.s[lo]--
					st.s[hi]++
					moved = true
					break
				}
			}
		}
		if !moved {
			break
		}
	}
}

func randomSwapState(rng *rand.Rand) *countState {
	n := 5 + rng.Intn(8)
	g := wgraph.New(n)
	cint := make([]int, n)
	active := make([]bool, n)
	side := make([]bool, n)
	for v := 0; v < n; v++ {
		g.SetCost(v, 1)
		cint[v] = 1 + rng.Intn(4)
		active[v] = true
		side[v] = rng.Intn(2) == 0
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if side[u] != side[v] && rng.Float64() < 0.5 {
				g.AddEdge(u, v, float64(1+rng.Intn(9)))
			}
		}
	}
	st := newCountState(g, active, side, cint, make([]float64, n))
	for v := 0; v < n; v++ {
		st.s[v] = rng.Intn(cint[v] + 1)
	}
	return st
}

func TestLiteralSwapPhasesNeverDecreaseWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		st := randomSwapState(rng)
		before := st.weight()
		literalSwapPhases(st, true)
		literalSwapPhases(st, false)
		if st.weight() < before-1e-9 {
			t.Fatalf("trial %d: literal swap decreased weight %v → %v",
				trial, before, st.weight())
		}
	}
}

func TestLiteralSwapLeavesAtMostOnePartialPerSide(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 80; trial++ {
		st := randomSwapState(rng)
		literalSwapPhases(st, true)
		literalSwapPhases(st, false)
		for _, left := range []bool{true, false} {
			partials := 0
			for v := range st.s {
				if st.side[v] == left && st.s[v] > 0 && st.s[v] < st.c[v] {
					partials++
				}
			}
			if partials > 1 {
				t.Fatalf("trial %d: %d partials on side %v after literal phases",
					trial, partials, left)
			}
		}
	}
}

func TestRefillComparableToLiteralSwap(t *testing.T) {
	// For a FIXED opposite side, refill's greedy fill is optimal, but the
	// two sides interact (a per-side-optimal L can steer the subsequent R
	// refill worse than the literal phases would), so strict per-instance
	// dominance does not hold. The production shortcut must, however, be
	// at least as good in aggregate and preserve per-side unit counts.
	rng := rand.New(rand.NewSource(3))
	var refTot, litTot float64
	for trial := 0; trial < 200; trial++ {
		base := randomSwapState(rng)

		lit := newCountState(base.g, base.active, base.side, base.c, base.bonus)
		copy(lit.s, base.s)
		literalSwapPhases(lit, true)
		literalSwapPhases(lit, false)

		ref := newCountState(base.g, base.active, base.side, base.c, base.bonus)
		copy(ref.s, base.s)
		ref.refill(true)
		ref.refill(false)

		refTot += ref.weight()
		litTot += lit.weight()
		// Both must preserve the unit counts per side.
		for _, left := range []bool{true, false} {
			var a, b int
			for v := range base.s {
				if base.side[v] == left {
					a += lit.s[v]
					b += ref.s[v]
				}
			}
			if a != b {
				t.Fatalf("trial %d: unit counts diverge (%d vs %d)", trial, a, b)
			}
		}
	}
	if refTot < litTot-1e-9 {
		t.Fatalf("refill aggregate weight %v below literal phases %v", refTot, litTot)
	}
}

// sortRefill is refill as it was before it popped a heap: it sorts every
// node of the side by (per-copy degree desc, node asc) and fills the
// sorted prefix. It is the oracle for TestRefillMatchesSort.
func sortRefill(st *countState, left bool) {
	n := len(st.s)
	units := 0
	var nodes []int
	for v := 0; v < n; v++ {
		if st.active[v] && st.side[v] == left {
			units += st.s[v]
			st.s[v] = 0
			nodes = append(nodes, v)
		}
	}
	if units == 0 {
		return
	}
	deg := make([]float64, n)
	for _, v := range nodes {
		deg[v] = st.perCopyDeg(v)
	}
	slices.SortFunc(nodes, func(a, b int) int {
		return cmp.Or(cmp.Compare(deg[b], deg[a]), a-b)
	})
	for _, v := range nodes {
		if units == 0 {
			break
		}
		take := st.c[v]
		if take > units {
			take = units
		}
		st.s[v] = take
		units -= take
	}
}

// TestRefillMatchesSort requires the heap refill to leave the same copy
// counts as the sort-based one on random count states: tie-heavy weights
// (0, 1 or 2, scaled by copy counts drawn from 1–3), nodes with no cross
// edge, inactive nodes, bonuses, sides with zero units, and sides holding
// more units than their nodes have copies.
func TestRefillMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(30)
		g := wgraph.New(n)
		cint := make([]int, n)
		active := make([]bool, n)
		side := make([]bool, n)
		bonus := make([]float64, n)
		for v := 0; v < n; v++ {
			g.SetCost(v, 1)
			cint[v] = 1 + rng.Intn(3)
			active[v] = rng.Intn(8) != 0
			side[v] = rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				bonus[v] = float64(rng.Intn(3))
			}
		}
		p := rng.Float64() * 0.6
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.AddEdge(u, v, float64(rng.Intn(3)))
				}
			}
		}
		st := newCountState(g, active, side, cint, bonus)
		zeroSide, overfull := rng.Intn(5) == 0, rng.Intn(5) == 0
		for v := 0; v < n; v++ {
			switch {
			case zeroSide && side[v]:
			case overfull:
				st.s[v] = rng.Intn(cint[v] + 3)
			default:
				st.s[v] = rng.Intn(cint[v] + 1)
			}
		}
		ref := newCountState(g, active, side, cint, bonus)
		copy(ref.s, st.s)
		for _, left := range []bool{true, false} {
			st.refill(left)
			sortRefill(ref, left)
			if !slices.Equal(st.s, ref.s) {
				t.Fatalf("trial %d side %v: heap refill %v, sort refill %v", trial, left, st.s, ref.s)
			}
		}
	}
}

// newCountCase builds a case on fresh storage (see build).
func newCountCase(g *wgraph.Graph, active []bool, c []int, bonus []float64) *countCase {
	cc := new(countCase)
	cc.build(g, active, c, bonus, new([]candidate))
	return cc
}

// newCountState is the count state of a case of its own, for a test
// that runs one restart. Its copy counts may be set directly before the
// first kernel runs on it.
func newCountState(g *wgraph.Graph, active, side []bool, c []int, bonus []float64) *countState {
	st := newCountCase(g, active, c, bonus).state(side)
	st.direct = true
	return st
}

func TestCountStateWeightConsistency(t *testing.T) {
	// The count-space weight must equal the explicit blow-up computation.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(6)
		g := wgraph.New(n)
		cint := make([]int, n)
		active := make([]bool, n)
		side := make([]bool, n)
		for v := 0; v < n; v++ {
			g.SetCost(v, float64(1+rng.Intn(4)))
			cint[v] = 1 + rng.Intn(4)
			active[v] = true
			side[v] = rng.Intn(2) == 0
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v, float64(1+rng.Intn(9)))
				}
			}
		}
		st := newCountState(g, active, side, cint, make([]float64, n))
		for v := 0; v < n; v++ {
			st.s[v] = rng.Intn(cint[v] + 1)
		}
		// Explicit: sum over cross edges of w·sU·sV/(cU·cV).
		var want float64
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] {
				want += e.W * float64(st.s[e.U]) * float64(st.s[e.V]) /
					(float64(cint[e.U]) * float64(cint[e.V]))
			}
		}
		if got := st.weight(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: count weight %v != explicit %v", trial, got, want)
		}
	}
}

func TestRefillLeavesAtMostOnePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(8)
		g := wgraph.New(n)
		cint := make([]int, n)
		active := make([]bool, n)
		side := make([]bool, n)
		for v := 0; v < n; v++ {
			g.SetCost(v, 1)
			cint[v] = 1 + rng.Intn(5)
			active[v] = true
			side[v] = rng.Intn(2) == 0
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if side[u] != side[v] && rng.Float64() < 0.5 {
					g.AddEdge(u, v, float64(1+rng.Intn(9)))
				}
			}
		}
		st := newCountState(g, active, side, cint, make([]float64, n))
		for v := 0; v < n; v++ {
			st.s[v] = rng.Intn(cint[v] + 1)
		}
		before := st.weight()
		st.refill(true)
		st.refill(false)
		after := st.weight()
		if after < before-1e-9 {
			t.Fatalf("trial %d: refill decreased weight %v → %v", trial, before, after)
		}
		for _, left := range []bool{true, false} {
			partials := 0
			for v := 0; v < n; v++ {
				if side[v] == left && st.s[v] > 0 && st.s[v] < cint[v] {
					partials++
				}
			}
			if partials > 1 {
				t.Fatalf("trial %d: side %v has %d partials after refill", trial, left, partials)
			}
		}
	}
}
