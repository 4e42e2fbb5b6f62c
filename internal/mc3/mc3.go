// Package mc3 implements the Minimization of Classifier Construction
// Costs problem (MC3) of Gershtein et al. [22, 23], the non-budgeted
// predecessor of BCC (Definition 2.4 of the paper): find a classifier set
// of minimum total cost that covers every input query.
//
// Matching the published guarantees (Theorem 2.5):
//
//   - for l ≤ 2 the problem is solved exactly in polynomial time, here by
//     reduction to maximum-weight closure / project selection, i.e. one
//     min-cut: choosing the set N of singleton classifiers to buy and
//     paying the pair classifier of every length-2 query not inside N is
//     equivalent to maximizing Σ_{e ⊆ N} C(e) − Σ_{v∈N} C(v);
//   - for l ≥ 3 a greedy weighted set cover over (query, property) slots
//     achieves an O(log n) approximation, followed by a reverse-delete
//     redundancy prune.
//
// The BCC algorithm A^BCC uses MC3 as a black-box local-search step
// (line 3 of Algorithm 1): re-cover the query set of the current solution
// at minimum cost and keep the outcome if it is cheaper.
package mc3

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/guard"
	"repro/internal/maxflow"
	"repro/internal/propset"
)

// Input is an MC3 problem: queries to cover and the classifier cost
// oracle. Cost must be defined (possibly +Inf) for every non-empty subset
// of every query, and give a subset the same price on every call; +Inf
// excludes a classifier.
type Input struct {
	Queries []propset.Set
	Cost    func(propset.Set) float64
}

// Output is a solved MC3 instance.
type Output struct {
	// Classifiers is the selected set, sorted by (length, property IDs).
	Classifiers []propset.Set
	// Cost is the total construction cost of Classifiers.
	Cost float64
	// Uncovered lists queries that cannot be covered by any finite-cost
	// classifier combination; they are excluded from the guarantee.
	Uncovered []propset.Set
}

// Solve covers all coverable queries at low cost: exactly for l ≤ 2,
// greedily (O(log n)-approximate) otherwise.
func Solve(inp Input) Output {
	guard.Inject("mc3.solve")
	maxLen := 0
	for _, q := range inp.Queries {
		if q.Len() > maxLen {
			maxLen = q.Len()
		}
	}
	if maxLen <= 2 {
		return SolveExactL2(inp)
	}
	return SolveGreedy(inp)
}

// SolveExactL2 solves MC3 exactly when every query has length ≤ 2, via a
// single min-cut on the project-selection network. It panics if a query is
// longer.
func SolveExactL2(inp Input) Output {
	var out Output

	// Intern the properties appearing in the queries.
	propIdx := map[propset.ID]int{}
	var props []propset.ID
	idx := func(p propset.ID) int {
		if i, ok := propIdx[p]; ok {
			return i
		}
		i := len(props)
		propIdx[p] = i
		props = append(props, p)
		return i
	}

	type pairQuery struct {
		q        propset.Set
		u, v     int // property indices
		edgeCost float64
	}
	var pairs []pairQuery
	forced := map[int]bool{} // property index → must buy singleton
	seen := map[string]bool{}

	singletonCost := func(p propset.ID) float64 { return inp.Cost(propset.New(p)) }

	for _, q := range inp.Queries {
		if seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		switch q.Len() {
		case 0:
			continue
		case 1:
			if math.IsInf(singletonCost(q[0]), 1) {
				out.Uncovered = append(out.Uncovered, q)
				continue
			}
			forced[idx(q[0])] = true
		case 2:
			cXY := inp.Cost(q)
			cX, cY := singletonCost(q[0]), singletonCost(q[1])
			if math.IsInf(cXY, 1) && (math.IsInf(cX, 1) || math.IsInf(cY, 1)) {
				out.Uncovered = append(out.Uncovered, q)
				continue
			}
			if math.IsInf(cX, 1) || math.IsInf(cY, 1) {
				// Must buy the pair classifier.
				pairs = append(pairs, pairQuery{q: q, u: -1, v: -1, edgeCost: cXY})
				continue
			}
			pairs = append(pairs, pairQuery{q: q, u: idx(q[0]), v: idx(q[1]), edgeCost: cXY})
		default:
			panic("mc3: SolveExactL2 requires queries of length ≤ 2")
		}
	}

	nProps := len(props)
	// Network: source 0, sink 1, edge-gadget nodes 2..2+|pairs|,
	// property nodes follow.
	src, snk := 0, 1
	edgeNode := func(i int) int { return 2 + i }
	propNode := func(i int) int { return 2 + len(pairs) + i }
	g := maxflow.New(2 + len(pairs) + nProps)
	for i, pq := range pairs {
		if pq.u < 0 {
			continue // unconditional pair purchase, no gadget needed
		}
		g.AddEdge(src, edgeNode(i), pq.edgeCost) // may be +Inf
		g.AddEdge(edgeNode(i), propNode(pq.u), math.Inf(1))
		g.AddEdge(edgeNode(i), propNode(pq.v), math.Inf(1))
	}
	for i := range props {
		c := singletonCost(props[i])
		if forced[i] {
			c = 0 // already paid below
		}
		g.AddEdge(propNode(i), snk, c)
	}
	g.MaxFlow(src, snk)
	side := g.MinCut(src)

	chosen := map[string]propset.Set{}
	add := func(s propset.Set) { chosen[s.Key()] = s }
	for i := range props {
		if side[propNode(i)] || forced[i] {
			add(propset.New(props[i]))
		}
	}
	for _, pq := range pairs {
		if pq.u < 0 {
			add(pq.q)
			continue
		}
		buyBoth := side[propNode(pq.u)] && side[propNode(pq.v)]
		if !buyBoth {
			add(pq.q)
		}
	}
	kept := make([]priced, 0, len(chosen))
	for _, c := range chosen {
		kept = append(kept, priced{c, inp.Cost(c)})
	}
	return finish(out, kept)
}

// SolveGreedy covers the queries by weighted set-cover greedy over
// (query, property) slots: each step selects the classifier minimizing
// cost per newly covered slot; a reverse-delete pass then removes
// redundant classifiers.
func SolveGreedy(inp Input) Output {
	gc := newGreedyCover(inp)
	cands := gc.cands
	covered := make([]uint32, len(gc.queries))
	remainingSlots := 0
	for qi, q := range gc.queries {
		if gc.coverable[qi] {
			remainingSlots += q.Len()
		}
	}
	newSlotsOf := func(i int) int {
		n := 0
		for _, o := range cands[i].occ {
			if gc.coverable[o.q] {
				n += bits.OnesCount32(o.mask &^ covered[o.q])
			}
		}
		return n
	}
	// Lazy-greedy: a candidate's cost-per-new-slot only grows as coverage
	// accumulates, so a stale heap entry can be revalidated on pop.
	chosen := make([]bool, len(cands))
	h := &candHeap{}
	heap.Init(h)
	for i := range cands {
		if slots := newSlotsOf(i); slots > 0 {
			heap.Push(h, candEntry{i, cands[i].cost / float64(slots)})
		}
	}
	for remainingSlots > 0 && h.Len() > 0 {
		e := heap.Pop(h).(candEntry)
		if chosen[e.i] {
			continue
		}
		slots := newSlotsOf(e.i)
		if slots == 0 {
			continue
		}
		if cur := cands[e.i].cost / float64(slots); cur > e.score+1e-12 {
			heap.Push(h, candEntry{e.i, cur})
			continue
		}
		chosen[e.i] = true
		for _, o := range cands[e.i].occ {
			if gc.coverable[o.q] {
				remainingSlots -= bits.OnesCount32(o.mask &^ covered[o.q])
				covered[o.q] |= o.mask
			}
		}
	}
	return gc.reverseDelete(chosen)
}

// greedyCover is SolveGreedy's index-native view of its input. queries
// are the distinct non-empty input queries in input order. A subset of a
// query is named by the bit mask over the query's sorted properties that
// picks it (bit i picks q[i]), and tables[qi][m-1] is the index in cands
// of the subset that mask m picks from queries[qi], or −1 when it is
// priced +Inf.
type greedyCover struct {
	queries   []propset.Set
	tables    [][]int32
	cands     []candidate
	coverable []bool
	uncovered []propset.Set
}

// candidate is a finite-cost classifier together with its occurrences:
// the queries it is a subset of, in query order, and its mask in each.
type candidate struct {
	priced
	occ []occurrence
}

type occurrence struct {
	q    int32
	mask uint32
}

// priced is a classifier with its construction cost.
type priced struct {
	set  propset.Set
	cost float64
}

// newGreedyCover deduplicates the queries and builds the candidates and
// subset tables. Candidates appear in the order the string-keyed greedy
// found them: queries in order, masks ascending, first appearance wins.
// A subset priced +Inf records no candidate, so a later query prices it
// again. Lookups go through one reused key buffer, so only a new query
// or candidate allocates a key.
func newGreedyCover(inp Input) *greedyCover {
	gc := &greedyCover{}
	var key []byte
	seen := make(map[string]bool, len(inp.Queries))
	size := 0
	for _, q := range inp.Queries {
		if q.Len() > 30 {
			panic(fmt.Sprintf("mc3: refusing to enumerate 2^%d subsets", q.Len()))
		}
		if q.Len() == 0 {
			continue
		}
		key = appendKey(key[:0], q, 1<<q.Len()-1)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		gc.queries = append(gc.queries, q)
		size += 1<<q.Len() - 1
	}
	flat := make([]int32, size)
	gc.tables = make([][]int32, len(gc.queries))
	gc.coverable = make([]bool, len(gc.queries))
	candIdx := make(map[string]int32, size) // at most one candidate per table entry
	for qi, q := range gc.queries {
		full := uint32(1)<<q.Len() - 1
		table := flat[:full:full]
		flat = flat[full:]
		gc.tables[qi] = table
		var reach uint32
		for m := uint32(1); m <= full; m++ {
			key = appendKey(key[:0], q, m)
			i, ok := candIdx[string(key)]
			if ok {
				gc.cands[i].occ = append(gc.cands[i].occ, occurrence{int32(qi), m})
			} else {
				sub := q.Pick(m)
				cost := inp.Cost(sub)
				if math.IsInf(cost, 1) {
					table[m-1] = -1
					continue
				}
				i = int32(len(gc.cands))
				candIdx[string(key)] = i
				gc.cands = append(gc.cands, candidate{priced{sub, cost}, []occurrence{{int32(qi), m}}})
			}
			table[m-1] = i
			reach |= m
		}
		// A query no combination of finite-cost subsets covers is left
		// out of the greedy and reported.
		if reach == full {
			gc.coverable[qi] = true
		} else {
			gc.uncovered = append(gc.uncovered, q)
		}
	}
	return gc
}

// appendKey appends to buf a map key for the subset of q that mask m
// picks: four bytes per picked property.
func appendKey(buf []byte, q propset.Set, m uint32) []byte {
	for i, id := range q {
		if m>>i&1 == 1 {
			buf = binary.BigEndian.AppendUint32(buf, uint32(id))
		}
	}
	return buf
}

// covers reports whether the chosen candidates cover query qi.
func (gc *greedyCover) covers(qi int32, chosen []bool) bool {
	var acc uint32
	for m, i := range gc.tables[qi] {
		if i >= 0 && chosen[i] {
			acc |= uint32(m + 1)
		}
	}
	return acc == uint32(len(gc.tables[qi]))
}

// reverseDelete drops chosen classifiers (costliest first) whose removal
// keeps every coverable query covered, and returns the survivors. Each
// removal trial only revisits the queries the classifier occurs in.
// Classifiers are tried in the order sort.Slice makes of the (length,
// IDs) list under the cost-descending comparator, which is the order the
// string-keyed version tried them in, equal costs included.
func (gc *greedyCover) reverseDelete(chosen []bool) Output {
	var sel []int
	for i, ok := range chosen {
		if ok {
			sel = append(sel, i)
		}
	}
	slices.SortFunc(sel, func(a, b int) int { return byShape(gc.cands[a].set, gc.cands[b].set) })
	byCost := slices.Clone(sel)
	sort.Slice(byCost, func(a, b int) bool { return gc.cands[byCost[a]].cost > gc.cands[byCost[b]].cost })
	for _, i := range byCost {
		if gc.cands[i].cost == 0 {
			continue
		}
		chosen[i] = false
		for _, o := range gc.cands[i].occ {
			if gc.coverable[o.q] && !gc.covers(o.q, chosen) {
				chosen[i] = true
				break
			}
		}
	}
	var kept []priced
	for _, i := range sel {
		if chosen[i] {
			kept = append(kept, gc.cands[i].priced)
		}
	}
	return finish(Output{Uncovered: gc.uncovered}, kept)
}

// finish sets out's classifiers to chosen sorted by (length, IDs) and its
// cost to their total, summed in that order so that equal plans report
// bit-identical costs whatever order they were collected in.
func finish(out Output, chosen []priced) Output {
	slices.SortFunc(chosen, func(a, b priced) int { return byShape(a.set, b.set) })
	for _, c := range chosen {
		out.Classifiers = append(out.Classifiers, c.set)
		out.Cost += c.cost
	}
	return out
}

// byShape orders classifiers by length, then by property IDs.
func byShape(a, b propset.Set) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), slices.Compare(a, b))
}

// Covers reports whether the output's classifier set covers q.
func (o Output) Covers(q propset.Set) bool {
	have := map[string]bool{}
	for _, c := range o.Classifiers {
		have[c.Key()] = true
	}
	var acc propset.Set
	q.Subsets(func(sub propset.Set) {
		if have[sub.Key()] {
			acc = acc.Union(sub)
		}
	})
	return acc.Equal(q)
}

type candEntry struct {
	i     int
	score float64
}

type candHeap []candEntry

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(candEntry)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
