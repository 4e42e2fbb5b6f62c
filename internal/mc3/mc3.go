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
//     redundancy prune. It runs on the instance's subset tables
//     (model.Instance.SubsetTable): a candidate is a classifier index.
//
// The BCC algorithm A^BCC uses MC3 as a black-box local-search step
// (line 3 of Algorithm 1): re-cover the query set of the current solution
// at minimum cost and keep the outcome if it is cheaper.
package mc3

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/guard"
	"repro/internal/maxflow"
	"repro/internal/model"
	"repro/internal/propset"
)

// Input is an MC3 problem given by property sets, the input of
// SolveExactL2: queries to cover and the classifier cost oracle. Cost
// must be defined (possibly +Inf) for every non-empty subset of every
// query, and give a subset the same price on every call; +Inf excludes a
// classifier.
type Input struct {
	Queries []propset.Set
	Cost    func(propset.Set) float64
}

// Output is a solved MC3 instance.
type Output struct {
	// Classifiers is the selected set, sorted by (length, property IDs).
	Classifiers []propset.Set
	// Indices lists Classifiers by index into the instance's
	// Classifiers, in the same order; Solve sets it, SolveExactL2 does
	// not.
	Indices []int32
	// Cost is the total construction cost of Classifiers.
	Cost float64
	// Uncovered lists queries that cannot be covered by any finite-cost
	// classifier combination; they are excluded from the guarantee.
	Uncovered []propset.Set
}

// Solve covers the given queries of the instance (distinct indices into
// in.Queries()) at low cost: exactly for l ≤ 2, by SolveExactL2 on their
// property sets priced by in.Cost, and greedily (O(log n)-approximate)
// otherwise, on their subset tables. Either way it reports the chosen
// classifiers by index too.
func Solve(in *model.Instance, queries []int) Output {
	guard.Inject("mc3.solve")
	maxLen := 0
	for _, qi := range queries {
		maxLen = max(maxLen, in.Queries()[qi].Length())
	}
	if maxLen > 2 {
		return newTableCover(in, queries).solve()
	}
	sets := make([]propset.Set, len(queries))
	for i, qi := range queries {
		sets[i] = in.Queries()[qi].Props
	}
	out := SolveExactL2(Input{Queries: sets, Cost: in.Cost})
	out.Indices = make([]int32, 0, len(out.Classifiers))
	for _, c := range out.Classifiers {
		// A classifier outside CL is priced +Inf; it has no index.
		if ci, ok := in.ClassifierIndex(c); ok {
			out.Indices = append(out.Indices, int32(ci))
		}
	}
	return out
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
		kept = append(kept, priced{set: c, cost: inp.Cost(c), ci: -1})
	}
	return finish(out, kept)
}

// greedyCover is the MC3 greedy's index-native view of its input: the
// distinct non-empty queries to cover, in input order, and the
// classifiers that may cover them. A subset of a query is named by the
// bit mask over the query's sorted properties that picks it (bit i picks
// its i-th property), and tables[qi][m-1] is the index in cands of the
// subset that mask m picks from query qi, or −1 when it is priced +Inf.
// Candidates are numbered in order of first appearance: queries in
// order, masks ascending. newTableCover fills the tables from an
// instance's subset tables; index derives the occurrences from them.
type greedyCover struct {
	tables    [][]int32
	cands     []priced
	coverable []bool
	uncovered []propset.Set
	// Candidate i occurs in the queries occ[occStart[i]:occStart[i+1]],
	// in query order, with its mask in each.
	occStart []int32
	occ      []occurrence
}

type occurrence struct {
	q    int32
	mask uint32
}

// priced is a classifier with its construction cost and, when it came
// from an instance's subset tables, its index there (else −1).
type priced struct {
	set  propset.Set
	cost float64
	ci   int32
}

// candOfs pools the table fill's map from a classifier index to its
// candidate, −1 for none. Between uses every entry is −1: a fill resets
// the entries of its candidates only, so no use clears O(|CL|) entries.
var candOfs = sync.Pool{New: func() any { return new([]int32) }}

// newTableCover fills a greedyCover from the subset tables of the given
// queries of in (distinct, so none is dropped as a repeat). A candidate
// is a classifier index priced at its Classifiers cost; a −1 entry is a
// subset priced +Inf.
func newTableCover(in *model.Instance, queries []int) *greedyCover {
	cls := in.Classifiers()
	buf := candOfs.Get().(*[]int32)
	if cap(*buf) < len(cls) {
		*buf = make([]int32, len(cls))
		for i := range *buf {
			(*buf)[i] = -1
		}
	}
	candOf := (*buf)[:len(cls)]
	size := 0
	for _, qi := range queries {
		size += len(in.SubsetTable(qi))
	}
	flat := make([]int32, size)
	gc := &greedyCover{tables: make([][]int32, len(queries)), coverable: make([]bool, len(queries))}
	for k, qi := range queries {
		src := in.SubsetTable(qi)
		table := flat[:len(src):len(src)]
		flat = flat[len(src):]
		gc.tables[k] = table
		var reach uint32
		for m, ci := range src {
			if ci < 0 {
				table[m] = -1
				continue
			}
			i := candOf[ci]
			if i < 0 {
				i = int32(len(gc.cands))
				candOf[ci] = i
				gc.cands = append(gc.cands, priced{set: cls[ci].Props, cost: cls[ci].Cost, ci: ci})
			}
			table[m] = i
			reach |= uint32(m + 1)
		}
		gc.mark(k, reach, in.Queries()[qi].Props)
	}
	for _, c := range gc.cands {
		candOf[c.ci] = -1
	}
	candOfs.Put(buf)
	return gc
}

// mark records whether query k, whose finite-cost subsets together pick
// reach, is coverable. A query no combination of finite-cost subsets
// covers is left out of the greedy and reported.
func (gc *greedyCover) mark(k int, reach uint32, q propset.Set) {
	if reach == uint32(len(gc.tables[k])) {
		gc.coverable[k] = true
	} else {
		gc.uncovered = append(gc.uncovered, q)
	}
}

// index lists every candidate's occurrences from the tables: the queries
// it is a subset of, in query order, and its mask in each.
func (gc *greedyCover) index() {
	gc.occStart = make([]int32, len(gc.cands)+1)
	for _, table := range gc.tables {
		for _, i := range table {
			if i >= 0 {
				gc.occStart[i+1]++
			}
		}
	}
	for i := range gc.cands {
		gc.occStart[i+1] += gc.occStart[i]
	}
	gc.occ = make([]occurrence, gc.occStart[len(gc.cands)])
	next := slices.Clone(gc.occStart[:len(gc.cands)])
	for qi, table := range gc.tables {
		for m, i := range table {
			if i >= 0 {
				gc.occ[next[i]] = occurrence{int32(qi), uint32(m + 1)}
				next[i]++
			}
		}
	}
}

// occurrences returns candidate i's occurrences.
func (gc *greedyCover) occurrences(i int) []occurrence {
	return gc.occ[gc.occStart[i]:gc.occStart[i+1]]
}

// solve covers the coverable queries by weighted set-cover greedy over
// (query, property) slots: each step selects the classifier minimizing
// cost per newly covered slot; a reverse-delete pass then removes
// redundant classifiers.
func (gc *greedyCover) solve() Output {
	gc.index()
	cands := gc.cands
	covered := make([]uint32, len(gc.tables))
	remainingSlots := 0
	for qi, table := range gc.tables {
		if gc.coverable[qi] {
			remainingSlots += bits.OnesCount32(uint32(len(table)))
		}
	}
	newSlotsOf := func(i int) int {
		n := 0
		for _, o := range gc.occurrences(i) {
			if gc.coverable[o.q] {
				n += bits.OnesCount32(o.mask &^ covered[o.q])
			}
		}
		return n
	}
	// Lazy-greedy: a candidate's cost-per-new-slot only grows as coverage
	// accumulates, so a stale heap entry can be revalidated on pop.
	chosen := make([]bool, len(cands))
	var h candHeap
	for i := range cands {
		if slots := newSlotsOf(i); slots > 0 {
			h.push(candEntry{i, cands[i].cost / float64(slots)})
		}
	}
	for remainingSlots > 0 && len(h) > 0 {
		e := h.pop()
		if chosen[e.i] {
			continue
		}
		slots := newSlotsOf(e.i)
		if slots == 0 {
			continue
		}
		if cur := cands[e.i].cost / float64(slots); cur > e.score+1e-12 {
			h.push(candEntry{e.i, cur})
			continue
		}
		chosen[e.i] = true
		for _, o := range gc.occurrences(e.i) {
			if gc.coverable[o.q] {
				remainingSlots -= bits.OnesCount32(o.mask &^ covered[o.q])
				covered[o.q] |= o.mask
			}
		}
	}
	return gc.reverseDelete(chosen)
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
		for _, o := range gc.occurrences(i) {
			if gc.coverable[o.q] && !gc.covers(o.q, chosen) {
				chosen[i] = true
				break
			}
		}
	}
	var kept []priced
	for _, i := range sel {
		if chosen[i] {
			kept = append(kept, gc.cands[i])
		}
	}
	return finish(Output{Uncovered: gc.uncovered}, kept)
}

// finish sets out's classifiers to chosen sorted by (length, IDs), with
// their indices where they have them, and its cost to their total,
// summed in that order so that equal plans report bit-identical costs
// whatever order they were collected in.
func finish(out Output, chosen []priced) Output {
	slices.SortFunc(chosen, func(a, b priced) int { return byShape(a.set, b.set) })
	for _, c := range chosen {
		out.Classifiers = append(out.Classifiers, c.set)
		if c.ci >= 0 {
			out.Indices = append(out.Indices, c.ci)
		}
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

// candHeap is a binary min-heap of candidates by score. push and pop
// move entries exactly as container/heap's Push and Pop do under Less =
// score <, without boxing an entry: the order in which equal scores pop
// breaks the greedy's ties, so it is part of every plan.
type candHeap []candEntry

func (h *candHeap) push(e candEntry) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].score < s[i].score) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *candHeap) pop() candEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].score < s[j1].score {
			j = j2
		}
		if !(s[j].score < s[i].score) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
