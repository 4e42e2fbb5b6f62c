package core

import (
	"container/heap"
	"math"
	"math/rand"
	"time"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/model"
)

// SolveRand is the RAND baseline: repeatedly select one uniformly random
// classifier among those whose selection does not exceed the budget, until
// none fits.
func SolveRand(in *model.Instance, seed int64) Result {
	start := time.Now()
	t := cover.New(in)
	steps := RandLoop(t, seed, true, nil, nil)
	return resultFrom(t, steps, 0, start)
}

// RandLoop is RAND's selection loop, shared by the budgeted RAND above,
// GMC3's RAND(G) and ECC's RAND(E). It draws the instance's classifiers
// without replacement, uniformly at random from a source seeded with
// seed, and selects each one the tracker has not selected yet. stop,
// budgeted and selected work as in IG1Loop; a selection is one
// classifier. A classifier that does not fit a budgeted loop's
// remaining budget is discarded: the budget only shrinks, so it can
// never fit again. It returns the number of classifiers selected.
func RandLoop(t *cover.Tracker, seed int64, budgeted bool, stop func() bool, selected func(sel []int32)) int {
	rng := rand.New(rand.NewSource(seed))
	cls := t.Instance().Classifiers()
	pool := make([]int, len(cls))
	for ci := range pool {
		pool[ci] = ci
	}
	var one [1]int32
	steps := 0
	for len(pool) > 0 {
		if stop != nil && stop() {
			break
		}
		i := rng.Intn(len(pool))
		ci := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if t.HasIndex(ci) || budgeted && cls[ci].Cost > t.Remaining()+1e-9 {
			continue
		}
		t.AddIndex(ci)
		steps++
		if selected != nil {
			one[0] = int32(ci)
			selected(one[:])
		}
	}
	return steps
}

// SolveIG1 is the IG1 baseline: an iterative greedy that, in each round,
// computes for every uncovered query the least costly classifier set that
// covers it (counting only not-yet-selected classifiers) and selects the
// set with the best utility-to-cost ratio that fits the remaining budget.
func SolveIG1(in *model.Instance) Result {
	start := time.Now()
	t := cover.New(in)
	steps := IG1Fill(nil, t)
	return resultFrom(t, steps, 0, start)
}

// IG1Fill runs the budgeted IG1 loop on an existing tracker — which may
// already hold free, warm-started or previously selected classifiers —
// until no further query cover fits the remaining budget, stopping early
// when the guard trips (g may be nil). It returns the number of covers
// selected. It is the IG1 baseline, the leftover-budget completion pass
// of A^BCC, and the submodular solver's never-worse-than-IG1 floor.
func IG1Fill(g *guard.Guard, t *cover.Tracker) int {
	return IG1Loop(t, true, g.Check, nil)
}

// IG1Loop is IG1's greedy selection loop, shared by the budgeted IG1
// above, GMC3's IG1(G) and ECC's IG1(E). On an existing tracker it
// repeatedly selects the whole cheapest cover (MinCover) of the uncovered
// query with the best utility-to-cost ratio, ties to the lower query
// index. stop is asked before every pop and ends the loop when it reports
// true (nil never stops). With budgeted, a cover costing more than the
// remaining budget is passed over until a later selection makes it
// cheaper. selected, when not nil, receives each selected cover's
// classifier indices after they are added. It returns the number of
// covers selected. Query scores live in a lazily revalidated max-heap and
// are refreshed only for the queries a selected classifier can affect.
//
// A refresh prices the query's cover (MinCoverCost) without building it;
// MinCover builds it once the query is selected. Both depend only on the
// query's residual and on which of its own subsets are selected, and any
// change to either touches the query and refreshes it. On budgeted runs
// an entry is pushed only when its cover fits the remaining budget: the
// budget only shrinks and a cover's cost changes only through a refresh,
// which pushes a fresh entry, so an entry that does not fit when pushed
// could never be selected. Under the heap's total order the entries left
// out cannot change which of the others pops next (DESIGN.md §5). When
// no unselected classifier fits at all, a budgeted loop returns before
// pricing any cover.
func IG1Loop(t *cover.Tracker, budgeted bool, stop func() bool, selected func(cover []int32)) int {
	if budgeted && !unselectedFits(t) {
		return 0
	}
	in := t.Instance()
	score := make([]float64, in.NumQueries())
	covCost := make([]float64, in.NumQueries())
	touched := make([]bool, in.NumQueries())
	var refreshed []int
	fits := func(qi int) bool { return !budgeted || covCost[qi] <= t.Remaining()+1e-9 }

	// rescore recomputes query qi's cover cost and score and reports
	// whether the query belongs in the heap.
	rescore := func(qi int) bool {
		if t.Covered(qi) {
			score[qi] = 0
			return false
		}
		cost := t.MinCoverCost(qi, nil)
		covCost[qi] = cost
		u := in.Queries()[qi].Utility
		switch {
		case math.IsInf(cost, 1):
			score[qi] = 0
		case cost == 0:
			score[qi] = math.Inf(1)
		default:
			score[qi] = u / cost
		}
		return score[qi] > 0 && fits(qi)
	}
	var h qHeap
	for qi := range in.Queries() {
		if rescore(qi) {
			h = append(h, qEntry{qi, score[qi]})
		}
	}
	h.init()

	steps := 0
	for len(h) > 0 {
		if stop != nil && stop() {
			break
		}
		e := h.pop()
		qi := e.qi
		if t.Covered(qi) || score[qi] == 0 {
			continue
		}
		if e.score > score[qi]+1e-12 || e.score < score[qi]-1e-12 {
			// Stale entry; re-push current value.
			if fits(qi) {
				h.push(qEntry{qi, score[qi]})
			}
			continue
		}
		if !fits(qi) {
			score[qi] = 0 // cover may get cheaper later; it will be refreshed
			continue
		}
		// Select the whole cover set.
		_, chosen := t.MinCover(qi, nil)
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
			if rescore(q2) {
				h.push(qEntry{q2, score[q2]})
			}
		}
		if selected != nil {
			selected(chosen)
		}
	}
	return steps
}

// unselectedFits reports whether some classifier the tracker has not
// selected costs no more than its remaining budget. When none does, a
// budgeted IG1Loop would push no query: every cover of an uncovered
// query holds an unselected classifier, and costs are non-negative, so
// the cover costs at least that classifier's cost.
func unselectedFits(t *cover.Tracker) bool {
	limit := t.Remaining() + 1e-9
	for ci, c := range t.Instance().Classifiers() {
		if c.Cost <= limit && !t.HasIndex(ci) {
			return true
		}
	}
	return false
}

// SolveIG2 is the IG2 baseline (the greedy Set Cover of [23] adapted to
// the budgeted setting): in each round select the single classifier
// maximizing the ratio between the summed utilities of the uncovered
// queries containing it and its cost, subject to the remaining budget.
func SolveIG2(in *model.Instance) Result {
	start := time.Now()
	t := cover.New(in)
	steps := IG2Loop(t, true, nil, nil)
	return resultFrom(t, steps, 0, start)
}

// IG2Loop is IG2's greedy selection loop, shared by the budgeted IG2
// above, GMC3's IG2(G) and ECC's IG2(E). On an existing tracker it
// repeatedly selects the unselected classifier with the best ratio of
// the summed utilities of the uncovered queries containing it to its
// cost. stop, budgeted and selected work as in IG1Loop; a selection is
// one classifier. A classifier that does not fit a budgeted loop's
// remaining budget is dropped for good. It returns the number of
// classifiers selected. Scores live in a lazily revalidated max-heap: a
// popped entry whose score has fallen is pushed back at its current
// score.
func IG2Loop(t *cover.Tracker, budgeted bool, stop func() bool, selected func(sel []int32)) int {
	in := t.Instance()
	classifiers := in.Classifiers()
	// util[ci] = Σ utilities of uncovered queries containing classifier ci.
	util := make([]float64, len(classifiers))
	credit := func(qi int, u float64) {
		for _, ci := range in.SubsetTable(qi) {
			if ci >= 0 {
				util[ci] += u
			}
		}
	}
	for qi, q := range in.Queries() {
		if !t.Covered(qi) {
			credit(qi, q.Utility)
		}
	}
	scoreOf := func(ci int) float64 {
		c := classifiers[ci]
		u := util[ci]
		if u <= 0 {
			return 0
		}
		if c.Cost == 0 {
			return math.Inf(1)
		}
		return u / c.Cost
	}
	h := &centryHeap{}
	heap.Init(h)
	for ci := range classifiers {
		if s := scoreOf(ci); s > 0 {
			heap.Push(h, cEntry{ci, s})
		}
	}
	steps := 0
	var before []bool
	var one [1]int32
	for h.Len() > 0 {
		if stop != nil && stop() {
			break
		}
		e := heap.Pop(h).(cEntry)
		if t.HasIndex(e.ci) {
			continue
		}
		s := scoreOf(e.ci)
		if s == 0 {
			continue
		}
		if e.score > s+1e-12 {
			heap.Push(h, cEntry{e.ci, s})
			continue
		}
		if budgeted && classifiers[e.ci].Cost > t.Remaining()+1e-9 {
			continue // permanently unaffordable
		}
		// Select and update utilities of classifiers sharing newly covered
		// queries.
		rel, _ := t.Occurrences(e.ci)
		before = before[:0]
		for _, qi := range rel {
			before = append(before, t.Covered(qi))
		}
		t.AddIndex(e.ci)
		steps++
		for i, qi := range rel {
			if t.Covered(qi) && !before[i] {
				credit(qi, -in.Queries()[qi].Utility)
			}
		}
		if selected != nil {
			one[0] = int32(e.ci)
			selected(one[:])
		}
	}
	return steps
}

// qEntry is one entry of IG1's heap: a query and the score it was
// pushed with.
type qEntry struct {
	qi    int
	score float64
}

// before reports whether a pops ahead of b in the canonical order: the
// higher score first, ties to the lower query index.
func (a qEntry) before(b qEntry) bool {
	return a.score > b.score || (a.score == b.score && a.qi < b.qi)
}

// qHeap is IG1's lazy max-heap in canonical order. The order is total, so
// the pop sequence depends only on the entries pushed, not on the order
// they were pushed in or on the heap's layout. Unlike container/heap it
// boxes no entry, so push and pop allocate nothing once the backing slice
// has room.
type qHeap []qEntry

// init establishes the heap order over the whole slice in O(len).
func (h qHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *qHeap) push(e qEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *qHeap) pop() qEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

func (h qHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h qHeap) down(i int) {
	n := len(h)
	for {
		best, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].before(h[best]) {
			best = l
		}
		if r < n && h[r].before(h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

type cEntry struct {
	ci    int
	score float64
}

type centryHeap []cEntry

func (h centryHeap) Len() int           { return len(h) }
func (h centryHeap) Less(i, j int) bool { return h[i].score > h[j].score }
func (h centryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *centryHeap) Push(x interface{}) {
	*h = append(*h, x.(cEntry))
}
func (h *centryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
