package core

import (
	"container/heap"
	"math"

	"repro/internal/cover"
)

// oracleIG1Loop is the IG1 selection loop as it stood before its heap
// was typed, its entries filtered by budget and its covers built lazily:
// a container/heap of boxed entries, every positive-score query pushed
// whether or not its cover fits, and each refresh building the cover it
// may never select. TestIG1LoopMatchesOracle compares IG1Loop with it.
func oracleIG1Loop(t *cover.Tracker, budgeted bool, stop func() bool, selected func(cover []int32)) int {
	in := t.Instance()
	h := &oracleHeap{}
	heap.Init(h)
	score := make([]float64, in.NumQueries())
	covSets := make([][]int32, in.NumQueries())
	covCost := make([]float64, in.NumQueries())
	touched := make([]bool, in.NumQueries())
	var refreshed []int

	refresh := func(qi int) {
		if t.Covered(qi) {
			score[qi] = 0
			return
		}
		cost, sets := t.MinCover(qi, nil)
		covCost[qi], covSets[qi] = cost, sets
		u := in.Queries()[qi].Utility
		switch {
		case math.IsInf(cost, 1):
			score[qi] = 0
		case cost == 0:
			score[qi] = math.Inf(1)
		default:
			score[qi] = u / cost
		}
		if score[qi] > 0 {
			heap.Push(h, oracleEntry{qi, score[qi]})
		}
	}
	for qi := range in.Queries() {
		refresh(qi)
	}

	steps := 0
	for h.Len() > 0 {
		if stop != nil && stop() {
			break
		}
		e := heap.Pop(h).(oracleEntry)
		qi := e.qi
		if t.Covered(qi) || score[qi] == 0 {
			continue
		}
		if e.score > score[qi]+1e-12 || e.score < score[qi]-1e-12 {
			// Stale entry; re-push current value.
			heap.Push(h, oracleEntry{qi, score[qi]})
			continue
		}
		if budgeted && covCost[qi] > t.Remaining()+1e-9 {
			score[qi] = 0 // cover may get cheaper later; it will be refreshed
			continue
		}
		// Select the whole cover set.
		chosen := covSets[qi]
		refreshed = refreshed[:0]
		for _, ci := range chosen {
			qs, _ := t.Occurrences(int(ci))
			for _, q2 := range qs {
				if !touched[q2] {
					touched[q2] = true
					refreshed = append(refreshed, q2)
				}
			}
			t.AddIndex(int(ci))
		}
		steps++
		for _, q2 := range refreshed {
			touched[q2] = false
			refresh(q2)
		}
		if selected != nil {
			selected(chosen)
		}
	}
	return steps
}

type oracleEntry struct {
	qi    int
	score float64
}

// oracleHeap orders the oracle's entries by score, ties to the lower
// query index.
type oracleHeap []oracleEntry

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].qi < h[j].qi
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) {
	*h = append(*h, x.(oracleEntry))
}
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
