package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/knapsack"
	"repro/internal/wgraph"
)

// subproblems is one materialization of the BCC(1) and BCC(2) instances of
// the paper (Observations 4.3 and 4.4) for the current tracker state: the
// knapsack items of all 1-covers and the QK graph of all 2-covers.
//
// In the residual setting (some classifiers already selected), a classifier
// c ⊆ q is a 1-cover of q iff c ⊇ residual(q), and a pair {c1, c2} ⊆ 2^q is
// a 2-cover iff c1 ∪ c2 ⊇ residual(q) while neither alone suffices —
// exactly the enlarged cover sets of Example 4.8.
type subproblems struct {
	items   []knapsack.Item
	itemCls []int32 // classifier index of each item
	// graph is the QK instance. Beyond the plain 2-cover edges of
	// Observation 4.4, every classifier's 1-cover value is attached as an
	// edge to a zero-cost virtual node vStar (the same encoding the
	// paper's ECC reduction uses for singleton queries): the QK solver
	// preselects zero-cost nodes, so these edges become linear bonuses and
	// the QK candidate optimizes the combined 1-cover + 2-cover objective
	// instead of being blind to singleton-query utility.
	graph   *wgraph.Graph
	nodeCls []int32 // classifier index of each node but vStar
	vStar   int     // node index of the virtual anchor, -1 if absent
}

// candidate is one classifier a query's subproblem terms may use: its
// index, its bit mask over the query's properties, and its cost.
type candidate struct {
	ci   int32
	mask uint32
	cost float64
}

// pair is a 2-cover edge record: its lower and higher node and the
// utility of the query it 2-covers.
type pair struct {
	lo, hi int32
	w      float64
}

// builder is buildSubproblems' scratch, kept across calls through the
// builders pool. itemOf and nodeOf map a classifier index to its item or
// node, -1 when it has none; between calls every entry is -1, so a build
// resets only the entries its items and nodes set. The rest is reused
// storage for the lists a build fills.
type builder struct {
	itemOf, nodeOf []int32
	items          []knapsack.Item
	itemCls        []int32
	nodeCls        []int32
	cands          []candidate
	pairs, sorted  []pair
	end            []int32
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// index returns itemOf and nodeOf for n classifiers, all -1.
func (b *builder) index(n int) (itemOf, nodeOf []int32) {
	if cap(b.itemOf) < n {
		b.itemOf, b.nodeOf = make([]int32, n), make([]int32, n)
		for i := range b.itemOf {
			b.itemOf[i], b.nodeOf[i] = -1, -1
		}
	}
	return b.itemOf[:n], b.nodeOf[:n]
}

// buildSubproblems scans the uncovered queries and assembles both
// subproblem inputs. allowed (nil = everything) restricts the candidate
// classifiers, implementing the pruning of Algorithm 1 step 1. maxCost
// (+Inf = everything) drops candidates that cannot fit the calling
// phase's budget — the warm fast path's replacement for pruning.
//
// Items and nodes are numbered in order of first appearance, and each
// query's candidates come in ascending mask order, so the subproblems
// are a pure function of the tracker state.
//
// The scan appends every 2-cover to one flat list of pair records. A
// stable counting sort groups them by lower node, a stable sort orders
// each group by higher node, and each run of equal endpoints becomes one
// edge whose weight sums the run's utilities in query order. So edges
// come in (lower, higher) endpoint order, which the QK solver's ties
// depend on, and a weight's bits do not depend on the sort (DESIGN.md
// §5).
func buildSubproblems(g *guard.Guard, t *cover.Tracker, allowed []bool, maxCost float64) *subproblems {
	in := t.Instance()
	cls := in.Classifiers()
	b := builders.Get().(*builder)
	itemOf, nodeOf := b.index(len(cls))
	items, itemCls, nodeCls := b.items[:0], b.itemCls[:0], b.nodeCls[:0]
	cands, pairs := b.cands[:0], b.pairs[:0]

	itemFor := func(ci int32) int {
		if i := itemOf[ci]; i >= 0 {
			return int(i)
		}
		i := len(items)
		itemOf[ci] = int32(i)
		items = append(items, knapsack.Item{Weight: cls[ci].Cost, Payload: i})
		itemCls = append(itemCls, ci)
		return i
	}
	nodeFor := func(ci int32) int32 {
		if i := nodeOf[ci]; i >= 0 {
			return i
		}
		i := int32(len(nodeCls))
		nodeOf[ci] = i
		nodeCls = append(nodeCls, ci)
		return i
	}

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
				i := itemFor(cd.ci) // before indexing: it may grow items
				items[i].Value += u
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
				c := nodeFor(cands[j].ci)
				if a > c {
					a, c = c, a
				}
				pairs = append(pairs, pair{lo: a, hi: c, w: u})
			}
		}
	}

	// Attach 1-cover values through vStar. Knapsack items that are not yet
	// QK nodes become nodes so the QK solver can select them too.
	vStar := -1
	if len(items) > 0 {
		for _, ci := range itemCls {
			nodeFor(ci)
		}
		vStar = len(nodeCls)
	}
	n := len(nodeCls)
	if vStar >= 0 {
		n++
	}

	// Group the pairs by lower node: end[v] ends up as the end of v's
	// group in sorted. Then order each group by higher node, stably.
	b.end = slices.Grow(b.end[:0], n)[:n]
	end := b.end
	clear(end)
	for _, p := range pairs {
		end[p.lo]++
	}
	sum := int32(0)
	for v, k := range end {
		end[v] = sum // the start of v's group, until the placement below
		sum += k
	}
	b.sorted = slices.Grow(b.sorted[:0], len(pairs))[:len(pairs)]
	sorted := b.sorted
	for _, p := range pairs {
		sorted[end[p.lo]] = p
		end[p.lo]++
	}
	lo := int32(0)
	for _, hi := range end {
		if hi-lo > 1 {
			slices.SortStableFunc(sorted[lo:hi], func(x, y pair) int { return cmp.Compare(x.hi, y.hi) })
		}
		lo = hi
	}
	// Merge each run of equal endpoints into the next free slot.
	merged := 0
	for i := 0; i < len(sorted); {
		w, j := 0.0, i
		for ; j < len(sorted) && sorted[j].lo == sorted[i].lo && sorted[j].hi == sorted[i].hi; j++ {
			w += sorted[j].w
		}
		sorted[merged] = pair{lo: sorted[i].lo, hi: sorted[i].hi, w: w}
		merged++
		i = j
	}

	cost := make([]float64, n) // vStar costs 0
	for i, ci := range nodeCls {
		cost[i] = cls[ci].Cost
	}
	edges := make([]wgraph.Edge, 0, merged+len(items))
	for _, p := range sorted[:merged] {
		edges = append(edges, wgraph.Edge{U: int(p.lo), V: int(p.hi), W: p.w})
	}
	for i, ci := range itemCls {
		edges = append(edges, wgraph.Edge{U: int(nodeOf[ci]), V: vStar, W: items[i].Value})
	}
	sp := &subproblems{
		items:   slices.Clone(items),
		itemCls: slices.Clone(itemCls),
		nodeCls: slices.Clone(nodeCls),
		graph:   wgraph.FromEdges(cost, edges),
		vStar:   vStar,
	}

	for _, ci := range itemCls {
		itemOf[ci] = -1
	}
	for _, ci := range nodeCls {
		nodeOf[ci] = -1
	}
	b.items, b.itemCls, b.nodeCls = items[:0], itemCls[:0], nodeCls[:0]
	b.cands, b.pairs = cands[:0], pairs[:0]
	builders.Put(b)
	return sp
}

// qkNodes translates a QK solution back to classifier indices, dropping
// the virtual anchor.
func (sp *subproblems) qkNodes(nodes []int) []int32 {
	var out []int32
	for _, v := range nodes {
		if v == sp.vStar {
			continue
		}
		out = append(out, sp.nodeCls[v])
	}
	return out
}
