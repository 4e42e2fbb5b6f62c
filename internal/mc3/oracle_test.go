package mc3

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/propset"
)

// solveGreedyInput runs the greedy on a set input, its tables filled by
// newGreedyCover.
func solveGreedyInput(inp Input) Output { return newGreedyCover(inp).solve() }

// newGreedyCover is the string-keyed way of filling the greedy's tables
// that the subset-table fill (newTableCover) replaced, kept as a test
// oracle for it: it deduplicates the queries by key and numbers the
// candidates in the order it finds them, queries in order, masks
// ascending, first appearance wins, pricing each through Input.Cost. A
// subset priced +Inf records no candidate, so a later query prices it
// again. Lookups go through one reused key buffer.
func newGreedyCover(inp Input) *greedyCover {
	gc := &greedyCover{}
	var key []byte
	seen := make(map[string]bool, len(inp.Queries))
	var queries []propset.Set
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
		queries = append(queries, q)
		size += 1<<q.Len() - 1
	}
	flat := make([]int32, size)
	gc.tables = make([][]int32, len(queries))
	gc.coverable = make([]bool, len(queries))
	candIdx := make(map[string]int32, size) // at most one candidate per table entry
	for qi, q := range queries {
		full := uint32(1)<<q.Len() - 1
		table := flat[:full:full]
		flat = flat[full:]
		gc.tables[qi] = table
		var reach uint32
		for m := uint32(1); m <= full; m++ {
			key = appendKey(key[:0], q, m)
			i, ok := candIdx[string(key)]
			if !ok {
				sub := q.Pick(m)
				cost := inp.Cost(sub)
				if math.IsInf(cost, 1) {
					table[m-1] = -1
					continue
				}
				i = int32(len(gc.cands))
				candIdx[string(key)] = i
				gc.cands = append(gc.cands, priced{set: sub, cost: cost, ci: -1})
			}
			table[m-1] = i
			reach |= m
		}
		gc.mark(qi, reach, q)
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

// The string-keyed MC3 greedy that the index-native greedy replaced,
// kept as its test oracle: candidates and coverage are propset.Sets
// looked up by Key, and every step re-prices classifiers through
// Input.Cost. oracleFinish sums the cost in the sorted output order, as
// finish does, so equal plans report bit-identical costs.

func oracleSolveGreedy(inp Input) Output {
	var out Output

	type queryState struct {
		q       propset.Set
		covered propset.Set
	}
	var states []queryState
	seen := map[string]bool{}
	for _, q := range inp.Queries {
		if q.Len() == 0 || seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		states = append(states, queryState{q: q})
	}

	type candidate struct {
		c       propset.Set
		cost    float64
		queries []int
	}
	candIdx := map[string]int{}
	var cands []candidate
	for qi, st := range states {
		st.q.Subsets(func(sub propset.Set) {
			k := sub.Key()
			if i, ok := candIdx[k]; ok {
				cands[i].queries = append(cands[i].queries, qi)
				return
			}
			cost := inp.Cost(sub)
			if math.IsInf(cost, 1) {
				return
			}
			candIdx[k] = len(cands)
			cands = append(cands, candidate{c: sub.Clone(), cost: cost, queries: []int{qi}})
		})
	}

	coverable := make([]bool, len(states))
	for qi, st := range states {
		var acc propset.Set
		st.q.Subsets(func(sub propset.Set) {
			if _, ok := candIdx[sub.Key()]; ok {
				acc = acc.Union(sub)
			}
		})
		if acc.Equal(st.q) {
			coverable[qi] = true
		} else {
			out.Uncovered = append(out.Uncovered, st.q)
		}
	}

	chosen := map[string]propset.Set{}
	remainingSlots := 0
	for qi := range states {
		if coverable[qi] {
			remainingSlots += states[qi].q.Len()
		}
	}
	newSlotsOf := func(i int) int {
		n := 0
		for _, qi := range cands[i].queries {
			if coverable[qi] {
				n += cands[i].c.Minus(states[qi].covered).Len()
			}
		}
		return n
	}
	scoreOf := func(i int, slots int) float64 {
		if slots == 0 {
			return math.Inf(1)
		}
		return cands[i].cost / float64(slots)
	}
	h := &oracleHeap{}
	heap.Init(h)
	for i := range cands {
		if slots := newSlotsOf(i); slots > 0 {
			heap.Push(h, candEntry{i, scoreOf(i, slots)})
		}
	}
	for remainingSlots > 0 && h.Len() > 0 {
		e := heap.Pop(h).(candEntry)
		if _, ok := chosen[cands[e.i].c.Key()]; ok {
			continue
		}
		slots := newSlotsOf(e.i)
		if slots == 0 {
			continue
		}
		if cur := scoreOf(e.i, slots); cur > e.score+1e-12 {
			heap.Push(h, candEntry{e.i, cur})
			continue
		}
		cand := cands[e.i]
		chosen[cand.c.Key()] = cand.c
		for _, qi := range cand.queries {
			if !coverable[qi] {
				continue
			}
			gained := cand.c.Minus(states[qi].covered).Len()
			states[qi].covered = states[qi].covered.Union(cand.c)
			remainingSlots -= gained
		}
	}

	out = oracleFinish(inp, out, chosen)
	return oracleReverseDelete(inp, out)
}

func oracleReverseDelete(inp Input, out Output) Output {
	uncovered := map[string]bool{}
	for _, q := range out.Uncovered {
		uncovered[q.Key()] = true
	}
	classifiers := append([]propset.Set(nil), out.Classifiers...)
	sort.Slice(classifiers, func(i, j int) bool {
		return inp.Cost(classifiers[i]) > inp.Cost(classifiers[j])
	})
	have := map[string]bool{}
	for _, c := range classifiers {
		have[c.Key()] = true
	}
	relq := map[string][]propset.Set{}
	seenQ := map[string]bool{}
	for _, q := range inp.Queries {
		if q.Len() == 0 || uncovered[q.Key()] || seenQ[q.Key()] {
			continue
		}
		seenQ[q.Key()] = true
		q.Subsets(func(sub propset.Set) {
			k := sub.Key()
			if have[k] {
				relq[k] = append(relq[k], q)
			}
		})
	}
	covers := func(q propset.Set) bool {
		var acc propset.Set
		q.Subsets(func(sub propset.Set) {
			if have[sub.Key()] {
				acc = acc.Union(sub)
			}
		})
		return acc.Equal(q)
	}
	for _, c := range classifiers {
		if inp.Cost(c) == 0 {
			continue
		}
		k := c.Key()
		have[k] = false
		ok := true
		for _, q := range relq[k] {
			if !covers(q) {
				ok = false
				break
			}
		}
		if !ok {
			have[k] = true
		}
	}
	chosen := map[string]propset.Set{}
	for _, c := range classifiers {
		if have[c.Key()] {
			chosen[c.Key()] = c
		}
	}
	return oracleFinish(inp, Output{Uncovered: out.Uncovered}, chosen)
}

func oracleFinish(inp Input, out Output, chosen map[string]propset.Set) Output {
	out.Classifiers = out.Classifiers[:0]
	for _, c := range chosen {
		out.Classifiers = append(out.Classifiers, c)
	}
	sort.Slice(out.Classifiers, func(i, j int) bool {
		a, b := out.Classifiers[i], out.Classifiers[j]
		if a.Len() != b.Len() {
			return a.Len() < b.Len()
		}
		return a.Key() < b.Key()
	})
	out.Cost = 0
	for _, c := range out.Classifiers {
		out.Cost += inp.Cost(c)
	}
	return out
}

type oracleHeap []candEntry

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(candEntry)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
