package core

import (
	"cmp"
	"slices"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/knapsack"
	"repro/internal/wgraph"
)

// halfEdge is a 2-cover edge seen from its lower endpoint.
type halfEdge struct {
	to int
	w  float64
}

// oracleBuildSubproblems is the subproblem build that the one-pass
// buildSubproblems replaced, kept as its test oracle: fresh itemOf and
// nodeOf arrays filled in O(|CL|), one slice of 2-cover pairs per node,
// and a graph grown with wgraph.New, SetCost and AddEdge.
func oracleBuildSubproblems(g *guard.Guard, t *cover.Tracker, allowed []bool, maxCost float64) *subproblems {
	in := t.Instance()
	cls := in.Classifiers()
	sp := &subproblems{}
	// itemOf and nodeOf map a classifier index to its item or node, -1
	// when it has none yet.
	itemOf := make([]int32, len(cls))
	nodeOf := make([]int32, len(cls))
	for i := range itemOf {
		itemOf[i], nodeOf[i] = -1, -1
	}
	// pairs[a] collects node a's 2-cover edges to higher nodes, in the
	// order the queries produce them.
	var pairs [][]halfEdge

	itemFor := func(ci int32) int {
		if i := itemOf[ci]; i >= 0 {
			return int(i)
		}
		i := len(sp.items)
		itemOf[ci] = int32(i)
		sp.items = append(sp.items, knapsack.Item{Weight: cls[ci].Cost, Payload: i})
		sp.itemCls = append(sp.itemCls, ci)
		return i
	}
	nodeFor := func(ci int32) int {
		if i := nodeOf[ci]; i >= 0 {
			return int(i)
		}
		i := len(sp.nodeCls)
		nodeOf[ci] = int32(i)
		sp.nodeCls = append(sp.nodeCls, ci)
		pairs = append(pairs, nil)
		return i
	}

	var cands []candidate
	for qi, q := range in.Queries() {
		// A trip yields a partial subproblem — the phase still solves it and
		// any candidate it produces remains feasibility-checked.
		if g.Check() {
			break
		}
		res := t.ResidualMask(qi)
		if res == 0 {
			continue
		}
		u := q.Utility
		cands = cands[:0]
		for m, ci := range in.SubsetTable(qi) {
			if ci < 0 || t.HasIndex(int(ci)) || (allowed != nil && !allowed[ci]) {
				continue
			}
			if cost := cls[ci].Cost; cost <= maxCost+1e-9 {
				cands = append(cands, candidate{ci: ci, mask: uint32(m + 1), cost: cost})
			}
		}
		// 1-covers.
		for _, cd := range cands {
			if res&^cd.mask == 0 {
				sp.items[itemFor(cd.ci)].Value += u
			}
		}
		// 2-covers (both classifiers needed).
		for i := 0; i < len(cands); i++ {
			if res&^cands[i].mask == 0 {
				continue
			}
			for j := i + 1; j < len(cands); j++ {
				if res&^cands[j].mask == 0 || res&^(cands[i].mask|cands[j].mask) != 0 {
					continue
				}
				a := nodeFor(cands[i].ci)
				b := nodeFor(cands[j].ci)
				if a > b {
					a, b = b, a
				}
				pairs[a] = append(pairs[a], halfEdge{to: b, w: u})
			}
		}
	}

	// Attach 1-cover values through vStar. Knapsack items that are not yet
	// QK nodes become nodes so the QK solver can select them too.
	sp.vStar = -1
	if len(sp.items) > 0 {
		for _, ci := range sp.itemCls {
			nodeFor(ci)
		}
		sp.vStar = len(sp.nodeCls)
	}

	n := len(sp.nodeCls)
	if sp.vStar >= 0 {
		n++
	}
	sp.graph = wgraph.New(n)
	for i, ci := range sp.nodeCls {
		sp.graph.SetCost(i, cls[ci].Cost)
	}
	// Add the edges in sorted endpoint order: the QK solver breaks ties
	// by edge order. A pair found in several queries becomes one edge
	// whose weight sums their utilities in query order.
	for a, es := range pairs {
		slices.SortStableFunc(es, func(x, y halfEdge) int { return cmp.Compare(x.to, y.to) })
		for i := 0; i < len(es); {
			w, j := 0.0, i
			for ; j < len(es) && es[j].to == es[i].to; j++ {
				w += es[j].w
			}
			sp.graph.AddEdge(a, es[i].to, w)
			i = j
		}
	}
	if sp.vStar >= 0 {
		sp.graph.SetCost(sp.vStar, 0)
		for i, ci := range sp.itemCls {
			sp.graph.AddEdge(int(nodeOf[ci]), sp.vStar, sp.items[i].Value)
		}
	}
	return sp
}
