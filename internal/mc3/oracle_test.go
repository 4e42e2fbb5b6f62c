package mc3

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/propset"
)

// The string-keyed MC3 greedy that the index-native SolveGreedy replaced,
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
	h := &candHeap{}
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
