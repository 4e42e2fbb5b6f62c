package qk

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wgraph"
)

// The dense count-state kernels below price every active node at every
// step, as the restart pipeline did before it priced only touched nodes.
// They are the oracles for TestCountStateMatchesDense and FuzzQK.

// denseGreedyFill is greedyFill with every active node in the heap from
// the start, at its ratio.
func denseGreedyFill(st *countState, k int) {
	gain := make([]float64, len(st.s))
	var h maxHeap
	for v := range st.s {
		if st.active[v] {
			gain[v] = st.bonus[v] / float64(st.c[v])
			if gain[v] > 0 {
				h = append(h, candidate{v, gain[v]})
			}
		}
	}
	h.init()
	place := func(v int) {
		st.s[v]++
		st.g.Neighbors(v, func(u int, w float64, _ int) {
			if st.active[u] && st.side[u] != st.side[v] {
				gain[u] += w / (float64(st.c[u]) * float64(st.c[v]))
				if st.s[u] < st.c[u] {
					h.push(candidate{u, gain[u]})
				}
			}
		})
		if st.s[v] < st.c[v] {
			h.push(candidate{v, gain[v]})
		}
	}
	placed := 0
	for placed < k {
		v := -1
		for len(h) > 0 {
			it := h.pop()
			if st.s[it.v] >= st.c[it.v] || it.score != gain[it.v] {
				continue
			}
			if it.score <= 0 {
				h = h[:0]
				break
			}
			v = it.v
			break
		}
		if v < 0 {
			var bu, bv int = -1, -1
			bestW := 0.0
			for _, e := range st.g.Edges() {
				if !st.active[e.U] || !st.active[e.V] || st.side[e.U] == st.side[e.V] {
					continue
				}
				if st.s[e.U] >= st.c[e.U] || st.s[e.V] >= st.c[e.V] {
					continue
				}
				pc := e.W / (float64(st.c[e.U]) * float64(st.c[e.V]))
				if pc > bestW {
					bestW, bu, bv = pc, e.U, e.V
				}
			}
			if bu < 0 || placed+2 > k {
				break
			}
			place(bu)
			place(bv)
			placed += 2
			continue
		}
		place(v)
		placed++
	}
}

// denseLocalSearch is localSearch scanning every node for a move in
// every round.
func denseLocalSearch(st *countState, rounds int) {
	n := len(st.s)
	for round := 0; round < rounds; round++ {
		worst, worstD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if st.active[v] && st.s[v] > 0 {
				if d := st.perCopyDeg(v); d < worstD {
					worst, worstD = v, d
				}
			}
		}
		if worst < 0 {
			break
		}
		st.s[worst]--
		bestV, bestD := -1, worstD
		for v := 0; v < n; v++ {
			if st.active[v] && st.s[v] < st.c[v] {
				if d := st.perCopyDeg(v); d > bestD+1e-12 {
					bestV, bestD = v, d
				}
			}
		}
		if bestV < 0 {
			st.s[worst]++
			break
		}
		st.s[bestV]++
	}
}

// denseRefill is refill pricing every node of the side and popping
// them all from one heap.
func denseRefill(st *countState, left bool) {
	units, nodes := 0, 0
	for v := range st.s {
		if st.active[v] && st.side[v] == left {
			units += st.s[v]
			st.s[v] = 0
			nodes++
		}
	}
	if units == 0 {
		return
	}
	h := make(maxHeap, 0, nodes)
	for v := range st.s {
		if st.active[v] && st.side[v] == left {
			h = append(h, candidate{v, st.perCopyDeg(v)})
		}
	}
	h.init()
	for units > 0 && len(h) > 0 {
		v := h.pop().v
		take := min(st.c[v], units)
		st.s[v] = take
		units -= take
	}
}

// randomCountCase is a random case for the count-state kernels: integer
// weights from 0 to 3 (zero weights and ties), copy counts from 1 to 4,
// inactive nodes, zero and tied bonuses, and now and then a bipartition
// with an empty side. It returns the case and a bipartition.
func randomCountCase(rng *rand.Rand) (*countCase, []bool) {
	n := 1 + rng.Intn(40)
	g := wgraph.New(n)
	active := make([]bool, n)
	side := make([]bool, n)
	c := make([]int, n)
	bonus := make([]float64, n)
	oneSide := rng.Intn(6) == 0
	for v := 0; v < n; v++ {
		g.SetCost(v, 1)
		active[v] = rng.Intn(8) != 0
		side[v] = oneSide || rng.Intn(2) == 0
		c[v] = 1 + rng.Intn(4)
		if rng.Intn(3) == 0 {
			bonus[v] = float64(rng.Intn(4))
		}
	}
	p := 0.05 + 0.4*rng.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, float64(rng.Intn(4)))
			}
		}
	}
	return newCountCase(g, active, c, bonus), side
}

// checkCountState runs a restart's stages on cc at side, k and rounds
// with the sparse kernels and the dense oracles, and fails on the first
// stage whose copy counts differ. It then requires the same final
// candidates at intBudget, where the oracles' state lists its selected
// nodes afresh from its counts.
func checkCountState(t *testing.T, cc *countCase, side []bool, k, rounds, intBudget int) {
	t.Helper()
	st, ref := cc.state(side), cc.state(side)
	defer st.release()
	defer ref.release()
	ref.direct = true // the oracles write ref.s directly
	for _, stage := range []struct {
		name   string
		sparse func()
		dense  func()
	}{
		{"greedyFill", func() { st.greedyFill(nil, k) }, func() { denseGreedyFill(ref, k) }},
		{"localSearch", func() { st.localSearch(nil, rounds) }, func() { denseLocalSearch(ref, rounds) }},
		{"refill L", func() { st.refill(true) }, func() { denseRefill(ref, true) }},
		{"refill R", func() { st.refill(false) }, func() { denseRefill(ref, false) }},
	} {
		stage.sparse()
		stage.dense()
		if !slices.Equal(st.s, ref.s) {
			t.Fatalf("after %s (n=%d, k=%d, rounds=%d):\n sparse %v\n dense  %v",
				stage.name, len(st.s), k, rounds, st.s, ref.s)
		}
	}
	if got, want := st.finalize(intBudget), ref.finalize(intBudget); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("finalize(%d) (n=%d, k=%d, rounds=%d): sparse %v, dense %v", intBudget, len(st.s), k, rounds, got, want)
	}
}

// TestCountStateMatchesDense requires the fill, the local search and
// both refills to leave the same copy counts as their dense oracles
// after every stage, and the same final candidates, on 600 random cases
// with zero weights, ties, copy counts above 1, zero-bonus nodes and
// empty sides, at fill sizes from 0 to past the active copies and up to
// 6 local-search rounds.
func TestCountStateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 600; trial++ {
		cc, side := randomCountCase(rng)
		k := rng.Intn(2*len(side) + 2)
		checkCountState(t, cc, side, k, rng.Intn(7), k+rng.Intn(4))
	}
}

// FuzzQK checks both restart kernels against their oracles on one
// seed's random inputs: the greedy completion against referenceGrow
// from every start growStarts gives, at a budget on or off a cost
// boundary, and the count-state stages against the dense ones.
func FuzzQK(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0))
	f.Add(int64(7), uint8(40), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, k, rounds, slack uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := tieQK(rng)
		var total float64
		for v := 0; v < g.NumNodes(); v++ {
			total += g.Cost(v)
		}
		b := float64(rng.Intn(int(total)+1)) * []float64{1, 0.1}[rng.Intn(2)]
		o := newOrders(g, b)
		for _, st := range growStarts(rng, g) {
			if got, want := greedyGrow(nil, g, o, b, st), referenceGrow(g, b, st); !slices.Equal(got, want) {
				t.Fatalf("budget %v start %v: kernel %v, oracle %v", b, st, got, want)
			}
		}
		cc, side := randomCountCase(rng)
		checkCountState(t, cc, side, int(k), int(rounds)%7, int(k)+int(slack)%4)
	})
}
