package qk

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/wgraph"
)

// Options tunes SolveHeuristic. The zero value gives the defaults from the
// paper's description: ⌈log₂ n⌉ + 1 random bipartition iterations.
type Options struct {
	// Iterations is the number of random bipartition rounds (paper: log n,
	// each running the whole pipeline, best solution kept). Default
	// ⌈log₂ n⌉ + 1.
	Iterations int
	// Seed drives all randomness deterministically. Default 1.
	Seed int64
	// Trace records per-restart-batch spans (obs.StageQKRestart). nil
	// disables tracing at the cost of one branch per restart; core's
	// SolveCtx sets it from the context recorder.
	Trace *obs.Recorder
}

// Fixed sizes of the A_H^QK pipeline.
const (
	// maxScaledBudget bounds the integerized budget B′ (and thus the
	// number of unit copies per node, ≤ B′/2).
	maxScaledBudget = 1024
	// maxTotalCopies bounds Σ c′(v); the cost grid is coarsened until the
	// bound holds.
	maxTotalCopies = 200000
	// expensiveCap bounds how many expensive nodes (cost ≥ B/2) are
	// enumerated individually and in pairs.
	expensiveCap = 40
	// localSearchRounds caps unit-move improvement sweeps per iteration.
	localSearchRounds = 4
)

func (o Options) withDefaults(n int) Options {
	if o.Iterations == 0 {
		o.Iterations = int(math.Ceil(math.Log2(float64(n+2)))) + 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SolveHeuristic is A_H^QK (Section 4.1 of the paper): the practical
// Quadratic Knapsack solver built from preprocessing, random bipartitions,
// an implicit copy blow-up solved by an HkS-style greedy in copy-count
// space, the two-phase copy-swapping procedure, and the Theorem 4.7 final
// selection. The returned solution never does worse than SolveGreedy.
func SolveHeuristic(g *wgraph.Graph, budget float64, opts Options) Result {
	return SolveHeuristicGuard(nil, g, budget, opts)
}

// SolveHeuristicGuard is SolveHeuristic under a guard: the pipeline checks
// it between cases and inside the restart workers (the worker pool always
// drains, so cancellation never leaks goroutines), and with a non-nil
// guard any panic in the pipeline is contained into it, returning the best
// result found so far. A nil guard never trips and re-raises panics,
// preserving SolveHeuristic's legacy behavior.
func SolveHeuristicGuard(gu *guard.Guard, g *wgraph.Graph, budget float64, opts Options) (res Result) {
	n := g.NumNodes()
	opts = opts.withDefaults(n)
	// The call's scratch goes back to the pool only on a normal return: a
	// contained panic may leave restart workers that still read it.
	s := solvers.Get().(*solveScratch)
	s.orders.build(g, budget, &s.radix)
	o := &s.orders
	grow(&s.sides, opts.Iterations)
	reset(&s.drawn, opts.Iterations)
	best := solveGreedy(g, o, budget) // safety floor
	res = best

	if n == 0 || g.NumEdges() == 0 || budget < 0 {
		solvers.Put(s)
		return res
	}
	if gu != nil {
		defer func() {
			if p := recover(); p != nil {
				gu.NotePanic(p)
				res = best
			}
		}()
	}

	// Floor: the heaviest affordable edges, greedily completed. Guards
	// against greedy traps where a cheap node promises an unaffordable
	// edge.
	affordable := empty(&s.affordable, 16)
	for _, e := range g.Edges() {
		if g.Cost(e.U)+g.Cost(e.V) <= budget+1e-9 {
			affordable = append(affordable, e)
		}
	}
	s.affordable = affordable
	sort.Slice(affordable, func(i, j int) bool { return affordable[i].W > affordable[j].W })
	if len(affordable) > 8 {
		affordable = affordable[:8]
	}
	for _, e := range affordable {
		best = better(best, resultFor(g, greedyGrow(gu, g, o, budget, []int{e.U, e.V})))
	}

	// Preprocessing: free nodes are always selected; nodes above the
	// budget can never be.
	zero := empty(&s.zero, 0)
	for v := 0; v < n; v++ {
		if g.Cost(v) == 0 {
			zero = append(zero, v)
		}
	}
	s.zero = zero
	// Expensive nodes: cost in [B/2, B]. At most two fit in any solution.
	expensive := empty(&s.expensive, 0)
	for v := 0; v < n; v++ {
		c := g.Cost(v)
		if c >= budget/2 && c <= budget && c > 0 {
			expensive = append(expensive, v)
		}
	}
	s.expensive = expensive
	sort.Slice(expensive, func(i, j int) bool {
		return g.WeightedDegree(expensive[i]) > g.WeightedDegree(expensive[j])
	})
	if len(expensive) > expensiveCap {
		expensive = expensive[:expensiveCap]
	}
	isExpensive := reset(&s.isExpensive, n)
	for v := 0; v < n; v++ {
		c := g.Cost(v)
		if c >= budget/2 && c > 0 {
			isExpensive[v] = true
		}
	}

	// Case: exactly two expensive nodes — enumerate pairs directly.
	for i := 0; i < len(expensive); i++ {
		if gu.Check() {
			break
		}
		for j := i + 1; j < len(expensive); j++ {
			a, b := expensive[i], expensive[j]
			if g.Cost(a)+g.Cost(b) <= budget+1e-9 {
				s.pre = append(append(s.pre[:0], zero...), a, b)
				best = better(best, resultFor(g, s.pre))
			}
		}
	}
	// Case: no expensive node in the optimum.
	if !gu.Tripped() {
		best = better(best, coreSolve(gu, g, s, budget, budget, isExpensive, zero, opts))
	}
	// Case: exactly one expensive node — preselect it, reduce the budget
	// for the quadratic part (the full budget still applies to the final
	// greedy completion, which accounts for the preselected node's cost).
	for _, a := range expensive {
		if gu.Tripped() {
			break
		}
		excl := grow(&s.excl, n)
		copy(excl, isExpensive)
		excl[a] = false
		s.pre = append(append(s.pre[:0], zero...), a)
		best = better(best, coreSolve(gu, g, s, budget-g.Cost(a), budget, excl, s.pre, opts))
	}
	res = best
	s.cc.g = nil // a pooled scratch holds no graph
	solvers.Put(s)
	return res
}

// solveScratch is one SolveHeuristicGuard call's working memory, kept
// across calls through the solvers pool: g's orders, the restarts'
// bipartitions, the case lists, and coreSolve's per-node arrays and case
// order. Cases run one after another and each joins its restarts before
// the next begins, so one case's arrays are reused by the next.
type solveScratch struct {
	orders orders
	radix  []candidate
	// sides[iter] is restart iter's bipartition, valid where drawn[iter].
	sides [][]bool
	drawn []bool

	affordable                         []wgraph.Edge
	zero, expensive, pre               []int
	isExpensive, excl, preMark, active []bool
	cint                               []int
	bonus                              []float64
	cc                                 countCase
}

var solvers = sync.Pool{New: func() any { return new(solveScratch) }}

// coreSolve runs the bipartition/blow-up/HkS pipeline on the instance with
// the given exclusions and preselected (treated-as-free) nodes. budget
// bounds the quadratic part; fullBudget (≥ budget plus the preselected
// cost) bounds the final completed solutions. s is the call's scratch:
// its orders (g's, shared by every completion) and its bipartitions:
// sides[iter] is restart iter's random bipartition (fillSide), drawn by
// the first case that runs the restart and reused by the later cases of
// the same call: it depends only on the seed, iter and n. Cases run one
// after another and each waits for its workers, and within a case each
// restart belongs to one worker, so the slots need no lock.
func coreSolve(gu *guard.Guard, g *wgraph.Graph, s *solveScratch, budget, fullBudget float64, excluded []bool, pre []int, opts Options) Result {
	n := g.NumNodes()
	o := &s.orders
	preMark := reset(&s.preMark, n)
	for _, v := range pre {
		preMark[v] = true
	}
	// Active nodes: positive-cost, affordable, not excluded, not
	// preselected. Nodes above half the (current) budget are dropped so
	// that the final-selection feasibility argument holds.
	active := reset(&s.active, n)
	anyActive := false
	for v := 0; v < n; v++ {
		c := g.Cost(v)
		if preMark[v] || (excluded != nil && excluded[v]) {
			continue
		}
		if c <= 0 || c > budget/2+1e-9 {
			continue
		}
		active[v] = true
		anyActive = true
	}
	if !anyActive || budget <= 0 {
		return resultFor(g, greedyGrow(gu, g, o, fullBudget, pre))
	}

	// Integerize costs: c′(v) = max(1, ⌈c(v)·f⌉) with f chosen so that
	// B′ ≤ maxScaledBudget and Σ c′ ≤ maxTotalCopies.
	f := 1.0
	integral := budget == math.Trunc(budget) && budget <= maxScaledBudget
	if integral {
		for v := 0; v < n; v++ {
			if active[v] && g.Cost(v) != math.Trunc(g.Cost(v)) {
				integral = false
				break
			}
		}
	}
	if !integral {
		f = maxScaledBudget / budget
	}
	cint := reset(&s.cint, n)
	for {
		total := 0
		for v := 0; v < n; v++ {
			if !active[v] {
				continue
			}
			cint[v] = int(math.Ceil(g.Cost(v)*f - 1e-12))
			if cint[v] < 1 {
				cint[v] = 1
			}
			total += cint[v]
		}
		if total <= maxTotalCopies || f <= 1e-9 {
			break
		}
		f /= 2
	}
	intBudget := int(math.Floor(budget*f + 1e-12))
	if intBudget < 2 {
		return resultFor(g, greedyGrow(gu, g, o, fullBudget, pre))
	}

	// Per-node linear bonus: edges into preselected nodes contribute
	// linearly once the node is fully selected.
	bonus := reset(&s.bonus, n)
	for v := 0; v < n; v++ {
		if !active[v] {
			continue
		}
		g.Neighbors(v, func(u int, w float64, _ int) {
			if preMark[u] {
				bonus[v] += w
			}
		})
	}

	best := resultFor(g, greedyGrow(gu, g, o, fullBudget, pre))
	cc := &s.cc
	cc.build(g, active, cint, bonus, &s.radix)

	// The paper runs the log n bipartition iterations in parallel; each
	// iteration only reads the shared graph and derives its own RNG, so a
	// bounded worker pool is safe. Results merge in iteration order for
	// determinism. On a tripped guard no further restarts launch, and
	// wg.Wait() always drains the ones in flight — cancellation never
	// leaks a goroutine.
	results := make([]Result, opts.Iterations)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for iter := 0; iter < opts.Iterations; iter++ {
		if gu.Tripped() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(iter int) {
			defer wg.Done()
			defer func() { <-sem }()
			if gu != nil {
				// A panic must be contained on the worker's own stack: the
				// caller's recover cannot catch a goroutine panic.
				defer gu.Recover()
			}
			guard.Inject("qk.restart")
			if gu.Tripped() {
				return
			}
			t0 := opts.Trace.Start()
			defer opts.Trace.End(obs.StageQKRestart, t0, n)
			if !s.drawn[iter] {
				fillSide(grow(&s.sides[iter], n), opts.Seed, iter)
				s.drawn[iter] = true
			}
			st := cc.state(s.sides[iter])
			k := intBudget / 2
			st.greedyFill(gu, k)
			st.localSearch(gu, localSearchRounds)
			st.refill(true)  // L side, by per-copy degree desc
			st.refill(false) // R side
			cands := st.finalize(intBudget)
			st.release()
			var iterBest Result
			for _, cand := range cands {
				nodes := append(append([]int(nil), pre...), cand...)
				nodes = greedyGrow(gu, g, o, fullBudget, nodes)
				iterBest = better(iterBest, resultFor(g, nodes))
			}
			results[iter] = iterBest
		}(iter)
	}
	wg.Wait()
	for _, r := range results {
		best = better(best, r)
	}
	return best
}

// fillSide draws restart iter's random bipartition into side (true = L
// side).
func fillSide(side []bool, seed int64, iter int) {
	// rand.Rand's Intn(2) is Int31()&1, and Int31 is the source's
	// Int63()>>32: side v is the bit rand.New(src).Intn(2) would draw,
	// without the three calls per node.
	src := rand.NewSource(seed + int64(iter)*7919)
	for v := range side {
		side[v] = src.Int63()>>32&1 == 0
	}
}

// countCase is one case of coreSolve as its restarts share it
// read-only: the active nodes, their copy counts and linear bonuses, and
// order, every active node by bonus[v]/c[v] descending, ties to the
// lower node. That ratio is the per-copy degree, and the HkS fill's
// gain, of a node none of whose neighbours across the bipartition holds
// a selected copy; it does not depend on the restart's bipartition, so
// one sort serves every restart (DESIGN.md §5).
type countCase struct {
	g      *wgraph.Graph
	active []bool
	c      []int // copies per node
	bonus  []float64
	order  []candidate
}

// build makes cc the case of the given active nodes, copy counts and
// bonuses, reusing cc's order storage and *buf as the radix sort's second
// array. Nodes with a zero ratio need no sort: they follow the others in
// node order, which is their canonical order.
func (cc *countCase) build(g *wgraph.Graph, active []bool, c []int, bonus []float64, buf *[]candidate) {
	nActive, nPos := 0, 0
	for v, a := range active {
		if a {
			nActive++
			if bonus[v]/float64(c[v]) > 0 {
				nPos++
			}
		}
	}
	order := grow(&cc.order, nActive)
	pos, zero := 0, nPos // the next slot for each kind
	for v, a := range active {
		if !a {
			continue
		}
		if r := bonus[v] / float64(c[v]); r > 0 {
			order[pos] = candidate{v, r}
			pos++
		} else {
			order[zero] = candidate{v, r}
			zero++
		}
	}
	radixSort(order[:nPos], true, grow(buf, nPos))
	cc.g, cc.active, cc.c, cc.bonus = g, active, c, bonus
}

// countState is the implicit blow-up graph Ĝ: every active node v stands
// for c′(v) unit-cost copies; edges across the bipartition have per-copy
// weight w(u,v)/(c′(u)·c′(v)). Selecting s(v) copies of every node
// reproduces the HkS solution on Ĝ without materializing it, which is what
// makes the blow-up scale (copies of a node are interchangeable).
//
// A node is touched when a node across the bipartition holds selected
// copies (or, during the fill, once it holds some itself); every other
// node's per-copy degree is its ratio on the case's order. The fill, the
// local search and the refill price only touched nodes and walk the
// order for the rest.
type countState struct {
	*countCase
	side []bool // true = L
	s    []int  // selected copies
	// sel lists, once each, the nodes that have held copies since the
	// last refill (held marks them), so that no kernel scans every node
	// for the few that hold copies. A state from the tests' newCountState
	// may have s set directly until the first kernel indexes it (direct).
	sel    []int
	held   []bool
	direct bool

	// Scratch, kept across restarts through the counters pool.
	gain    []float64 // the fill's gains, live where mark is set
	mark    []bool
	touched []int
	heap    maxHeap
}

var counters = sync.Pool{New: func() any { return new(countState) }}

// state returns a restart's count state on bipartition side, with no
// copy selected and its scratch from the counters pool.
func (cc *countCase) state(side []bool) *countState {
	st := counters.Get().(*countState)
	st.countCase, st.side = cc, side
	reset(&st.s, cc.g.NumNodes())
	reset(&st.held, cc.g.NumNodes())
	st.sel, st.direct = st.sel[:0], false
	return st
}

// index lists the nodes holding copies in sel, once, for a state whose
// counts were set directly.
func (st *countState) index() {
	if !st.direct {
		return
	}
	st.direct = false
	for v, sv := range st.s {
		if sv > 0 {
			st.hold(v)
		}
	}
}

// hold lists v in sel unless it is there already; call it whenever v
// may hold copies.
func (st *countState) hold(v int) {
	if !st.held[v] {
		st.held[v] = true
		st.sel = append(st.sel, v)
	}
}

// release returns st's scratch to the pool; st must not be used after.
func (st *countState) release() {
	st.countCase, st.side = nil, nil
	counters.Put(st)
}

// perCopyDeg is the weighted degree of one copy of v into the currently
// selected copies on the opposite side (plus its share of the linear
// bonus).
func (st *countState) perCopyDeg(v int) float64 {
	d := st.bonus[v] / float64(st.c[v])
	st.g.Neighbors(v, func(u int, w float64, _ int) {
		if st.active[u] && st.side[u] != st.side[v] && st.s[u] > 0 {
			d += w * float64(st.s[u]) / (float64(st.c[u]) * float64(st.c[v]))
		}
	})
	return d
}

// weight is the count-space objective: the total weight of the selected
// copies' induced subgraph in Ĝ.
func (st *countState) weight() float64 {
	var sum float64
	for _, e := range st.g.Edges() {
		if st.active[e.U] && st.active[e.V] && st.side[e.U] != st.side[e.V] {
			sum += e.W * float64(st.s[e.U]) * float64(st.s[e.V]) /
				(float64(st.c[e.U]) * float64(st.c[e.V]))
		}
	}
	for v := range st.s {
		if st.active[v] && st.s[v] > 0 {
			sum += st.bonus[v] * float64(st.s[v]) / float64(st.c[v])
		}
	}
	return sum
}

func (st *countState) totalSelected() int {
	st.index()
	t := 0
	for _, v := range st.sel {
		if st.active[v] {
			t += st.s[v]
		}
	}
	return t
}

// greedyFill places up to k unit copies, one at a time, always choosing
// the copy with the maximum marginal per-copy degree, ties to the lower
// node. Gains only grow. An untouched node's gain is its ratio, so the
// fill walks the case's order for those and keeps a lazy max-heap in
// canonical order for the touched ones: every gain change pushes an
// entry at the new gain, so an entry below its node's current gain is
// stale and dropped. Each step takes the better of the heap's top and
// the first untouched node with a positive ratio. When no positive gain
// exists it seeds with the cross-edge of the highest per-copy-pair
// weight.
func (st *countState) greedyFill(gu *guard.Guard, k int) {
	st.index()
	n := len(st.s)
	gain := grow(&st.gain, n)
	mark := reset(&st.mark, n)
	h := st.heap[:0]
	defer func() { st.heap = h }()
	touch := func(v int) {
		if !mark[v] {
			mark[v] = true
			gain[v] = st.bonus[v] / float64(st.c[v])
		}
	}
	place := func(v int) {
		st.s[v]++
		st.hold(v)
		st.g.Neighbors(v, func(u int, w float64, _ int) {
			if st.active[u] && st.side[u] != st.side[v] {
				touch(u)
				gain[u] += w / (float64(st.c[u]) * float64(st.c[v]))
				if st.s[u] < st.c[u] {
					h.push(candidate{u, gain[u]})
				}
			}
		})
		touch(v)
		if st.s[v] < st.c[v] {
			h.push(candidate{v, gain[v]})
		}
	}
	order, walk := st.order, 0
	placed := 0
	for placed < k {
		if gu.Check() {
			return
		}
		for len(h) > 0 && (st.s[h[0].v] >= st.c[h[0].v] || h[0].score != gain[h[0].v]) {
			h.pop()
		}
		for walk < len(order) && mark[order[walk].v] {
			walk++
		}
		v := -1
		switch {
		case walk < len(order) && order[walk].score > 0 && (len(h) == 0 || order[walk].before(h[0])):
			v = order[walk].v
		case len(h) > 0:
			if it := h.pop(); it.score > 0 {
				v = it.v
			} else {
				h = h[:0]
			}
		}
		if v < 0 {
			// Seed: best cross edge with both endpoints addable.
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

// markTouched marks every active node with an active neighbour across
// the bipartition that holds selected copies, and returns them: the
// nodes whose per-copy degree is not their ratio.
func (st *countState) markTouched() []int {
	mark := reset(&st.mark, len(st.s))
	touched := st.touched[:0]
	for _, u := range st.sel {
		if st.s[u] <= 0 || !st.active[u] {
			continue
		}
		st.g.Neighbors(u, func(v int, _ float64, _ int) {
			if !mark[v] && st.active[v] && st.side[v] != st.side[u] {
				mark[v] = true
				touched = append(touched, v)
			}
		})
	}
	st.touched = touched
	return touched
}

// improvable reports whether an active node with a free copy has a
// per-copy degree above bar, pricing only the touched nodes: an
// untouched node's degree is its ratio, and the first eligible one on
// the case's order has the largest.
func (st *countState) improvable(bar float64) bool {
	for _, v := range st.markTouched() {
		if st.s[v] < st.c[v] && st.perCopyDeg(v) > bar {
			return true
		}
	}
	for _, e := range st.order {
		if !st.mark[e.v] && st.s[e.v] < st.c[e.v] {
			return e.score > bar
		}
	}
	return false
}

// localSearch moves single units between nodes while that improves the
// count-space weight. A round first decides whether any move improves,
// which improvable answers exactly from the touched nodes and the case's
// order; only then does it scan every node for the move, in node order.
func (st *countState) localSearch(gu *guard.Guard, rounds int) {
	st.index()
	n := len(st.s)
	for round := 0; round < rounds; round++ {
		if gu.Check() {
			return
		}
		// Weakest selected unit, ties to the lower node.
		worst, worstD := -1, math.Inf(1)
		for _, v := range st.sel {
			if st.active[v] && st.s[v] > 0 {
				if d := st.perCopyDeg(v); d < worstD || (d == worstD && v < worst) {
					worst, worstD = v, d
				}
			}
		}
		if worst < 0 {
			break
		}
		st.s[worst]--
		if !st.improvable(worstD + 1e-12) {
			st.s[worst]++
			break
		}
		bestV, bestD := -1, worstD
		for v := 0; v < n; v++ {
			if st.active[v] && st.s[v] < st.c[v] {
				if d := st.perCopyDeg(v); d > bestD+1e-12 {
					bestV, bestD = v, d
				}
			}
		}
		st.s[bestV]++
		st.hold(bestV)
	}
}

// refill reassigns the units of one side greedily by per-copy degree
// (descending), filling nodes to capacity — the per-side-optimal fixed
// point of the paper's two-phase swapping procedure: afterwards at most
// one node on the side is partially selected, and the weight has not
// decreased (all moves go from lower- to higher-degree copies; intra-side
// moves do not change any copy's degree). For a fixed opposite side this
// is the best achievable arrangement; swap_test.go compares it against a
// literal implementation of the paper's phases.
//
// Zeroing the side first does not move any of its degrees: a copy's
// degree counts only copies on the opposite side. So after it, the
// touched nodes are exactly the side's nodes with a selected neighbour
// across; they go into a maxHeap keyed by per-copy degree, and the rest
// come from the case's order, whose canonical order (degree desc, node
// asc) is the heap's. Filling from the better of the two until the units
// run out fills the nodes, and leaves the copy counts, that a full sort
// of the side would.
func (st *countState) refill(left bool) {
	st.index()
	units, kept := 0, st.sel[:0]
	for _, v := range st.sel {
		if st.active[v] && st.side[v] == left {
			units += st.s[v]
			st.s[v] = 0
		}
		if st.s[v] > 0 {
			kept = append(kept, v)
		} else {
			st.held[v] = false
		}
	}
	st.sel = kept
	if units == 0 {
		return
	}
	h := st.heap[:0]
	for _, v := range st.markTouched() {
		h = append(h, candidate{v, st.perCopyDeg(v)})
	}
	h.init()
	order, walk := st.order, 0
	for units > 0 {
		for walk < len(order) && (st.side[order[walk].v] != left || st.mark[order[walk].v]) {
			walk++
		}
		var v int
		if walk < len(order) && (len(h) == 0 || order[walk].before(h[0])) {
			v = order[walk].v
			walk++
		} else if len(h) > 0 {
			v = h.pop().v
		} else {
			break
		}
		take := min(st.c[v], units)
		st.s[v] = take
		st.hold(v)
		units -= take
	}
	st.heap = h
}

// finalize applies the Theorem 4.7 final-selection analysis and returns
// candidate node sets (in original node IDs) to be evaluated by the
// caller. Every candidate consists of completely selected nodes only.
func (st *countState) finalize(intBudget int) [][]int {
	st.index()
	partials := make([]int, 0, 2)
	for _, v := range st.sel {
		if st.active[v] && st.s[v] > 0 && st.s[v] < st.c[v] {
			partials = append(partials, v)
		}
	}
	slices.Sort(partials)
	remaining := intBudget - st.totalSelected()

	complete := func() []int {
		var out []int
		for _, v := range st.sel {
			if st.active[v] && st.s[v] == st.c[v] {
				out = append(out, v)
			}
		}
		slices.Sort(out)
		return out
	}

	switch len(partials) {
	case 0:
		return [][]int{complete()}
	case 1:
		p := partials[0]
		if missing := st.c[p] - st.s[p]; missing <= remaining {
			st.s[p] = st.c[p]
			return [][]int{complete()}
		}
		// Cannot complete (can only happen after aggressive cost
		// coarsening); drop the partial node.
		st.s[p] = 0
		return [][]int{complete()}
	default:
		uL, uR := partials[0], partials[1]
		if len(partials) > 2 {
			// More than two partials can only arise when a side had zero
			// units; degrade gracefully by dropping the extras.
			for _, p := range partials[2:] {
				st.s[p] = 0
			}
		}
		missing := (st.c[uL] - st.s[uL]) + (st.c[uR] - st.s[uR])
		if missing <= remaining {
			st.s[uL] = st.c[uL]
			st.s[uR] = st.c[uR]
			return [][]int{complete()}
		}
		// Case analysis. Candidate A (Case I): drop the uL–uR edge
		// contribution and consolidate units into the higher-degree node.
		// Candidate B (Case II): keep only {uL, uR}, fully selected.
		sL, sR := st.s[uL], st.s[uR]
		degL := st.perCopyDeg(uL) - st.edgeShare(uL, uR)*float64(sR)
		degR := st.perCopyDeg(uR) - st.edgeShare(uR, uL)*float64(sL)
		if degR > degL {
			uL, uR = uR, uL
			sL, sR = sR, sL
		}
		// Transfer from uR into uL.
		transfer := sR
		if room := st.c[uL] - sL; transfer > room {
			transfer = room
		}
		st.s[uL] = sL + transfer
		st.s[uR] = sR - transfer
		if st.s[uL] < st.c[uL] || st.s[uR] > 0 {
			// Could not fully consolidate; drop leftovers.
			if st.s[uL] < st.c[uL] {
				st.s[uL] = 0
			}
			st.s[uR] = 0
		} else {
			st.s[uR] = 0
		}
		candA := complete()
		candB := []int{uL, uR}
		return [][]int{candA, candB}
	}
}

// edgeShare is the per-copy-pair weight of the u–v edge in Ĝ.
func (st *countState) edgeShare(u, v int) float64 {
	w := st.g.EdgeWeight(u, v)
	if w == 0 {
		return 0
	}
	return w / (float64(st.c[u]) * float64(st.c[v]))
}
