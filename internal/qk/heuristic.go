package qk

import (
	"cmp"
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
// paper's description: ⌈log₂ n⌉ random bipartition iterations, budget-scaled
// integer costs, and a bounded expensive-node enumeration.
type Options struct {
	// Iterations is the number of random bipartition rounds (paper: log n,
	// each running the whole pipeline, best solution kept). Default
	// ⌈log₂ n⌉ + 1.
	Iterations int
	// Seed drives all randomness deterministically. Default 1.
	Seed int64
	// MaxScaledBudget bounds the integerized budget B′ (and thus the
	// number of unit copies per node, ≤ B′/2). Default 1024.
	MaxScaledBudget int
	// MaxTotalCopies bounds Σ c′(v); the cost grid is coarsened until the
	// bound holds. Default 200000.
	MaxTotalCopies int
	// ExpensiveCap bounds how many expensive nodes (cost ≥ B/2) are
	// enumerated individually and in pairs. Default 40.
	ExpensiveCap int
	// LocalSearchRounds caps unit-move improvement sweeps per iteration.
	// Default 4.
	LocalSearchRounds int
	// Trace records per-restart-batch spans (obs.StageQKRestart). nil
	// disables tracing at the cost of one branch per restart; core's
	// SolveCtx sets it from the context recorder.
	Trace *obs.Recorder
}

func (o Options) withDefaults(n int) Options {
	if o.Iterations == 0 {
		o.Iterations = int(math.Ceil(math.Log2(float64(n+2)))) + 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxScaledBudget == 0 {
		o.MaxScaledBudget = 1024
	}
	if o.MaxTotalCopies == 0 {
		o.MaxTotalCopies = 200000
	}
	if o.ExpensiveCap == 0 {
		o.ExpensiveCap = 40
	}
	if o.LocalSearchRounds == 0 {
		o.LocalSearchRounds = 4
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
	best := SolveGreedy(g, budget) // safety floor
	res = best

	if n == 0 || g.NumEdges() == 0 || budget < 0 {
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
	affordable := make([]wgraph.Edge, 0, 16)
	for _, e := range g.Edges() {
		if g.Cost(e.U)+g.Cost(e.V) <= budget+1e-9 {
			affordable = append(affordable, e)
		}
	}
	sort.Slice(affordable, func(i, j int) bool { return affordable[i].W > affordable[j].W })
	if len(affordable) > 8 {
		affordable = affordable[:8]
	}
	for _, e := range affordable {
		best = better(best, resultFor(g, greedyComplete(gu, g, budget, []int{e.U, e.V})))
	}

	// Preprocessing: free nodes are always selected; nodes above the
	// budget can never be.
	var zero []int
	for v := 0; v < n; v++ {
		if g.Cost(v) == 0 {
			zero = append(zero, v)
		}
	}
	// Expensive nodes: cost in [B/2, B]. At most two fit in any solution.
	var expensive []int
	for v := 0; v < n; v++ {
		c := g.Cost(v)
		if c >= budget/2 && c <= budget && c > 0 {
			expensive = append(expensive, v)
		}
	}
	sort.Slice(expensive, func(i, j int) bool {
		return g.WeightedDegree(expensive[i]) > g.WeightedDegree(expensive[j])
	})
	if len(expensive) > opts.ExpensiveCap {
		expensive = expensive[:opts.ExpensiveCap]
	}
	isExpensive := make([]bool, n)
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
				cand := append(append([]int(nil), zero...), a, b)
				best = better(best, resultFor(g, cand))
			}
		}
	}
	// Case: no expensive node in the optimum.
	if !gu.Tripped() {
		best = better(best, coreSolve(gu, g, budget, budget, isExpensive, zero, opts))
	}
	// Case: exactly one expensive node — preselect it, reduce the budget
	// for the quadratic part (the full budget still applies to the final
	// greedy completion, which accounts for the preselected node's cost).
	for _, a := range expensive {
		if gu.Tripped() {
			break
		}
		excl := make([]bool, n)
		copy(excl, isExpensive)
		excl[a] = false
		pre := append(append([]int(nil), zero...), a)
		best = better(best, coreSolve(gu, g, budget-g.Cost(a), budget, excl, pre, opts))
	}
	res = best
	return res
}

// coreSolve runs the bipartition/blow-up/HkS pipeline on the instance with
// the given exclusions and preselected (treated-as-free) nodes. budget
// bounds the quadratic part; fullBudget (≥ budget plus the preselected
// cost) bounds the final completed solutions.
func coreSolve(gu *guard.Guard, g *wgraph.Graph, budget, fullBudget float64, excluded []bool, pre []int, opts Options) Result {
	n := g.NumNodes()
	preMark := make([]bool, n)
	for _, v := range pre {
		preMark[v] = true
	}
	// Active nodes: positive-cost, affordable, not excluded, not
	// preselected. Nodes above half the (current) budget are dropped so
	// that the final-selection feasibility argument holds.
	active := make([]bool, n)
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
		return resultFor(g, greedyComplete(gu, g, fullBudget, pre))
	}

	// Integerize costs: c′(v) = max(1, ⌈c(v)·f⌉) with f chosen so that
	// B′ ≤ MaxScaledBudget and Σ c′ ≤ MaxTotalCopies.
	f := 1.0
	integral := budget == math.Trunc(budget) && budget <= float64(opts.MaxScaledBudget)
	if integral {
		for v := 0; v < n; v++ {
			if active[v] && g.Cost(v) != math.Trunc(g.Cost(v)) {
				integral = false
				break
			}
		}
	}
	if !integral {
		f = float64(opts.MaxScaledBudget) / budget
	}
	cint := make([]int, n)
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
		if total <= opts.MaxTotalCopies || f <= 1e-9 {
			break
		}
		f /= 2
	}
	intBudget := int(math.Floor(budget*f + 1e-12))
	if intBudget < 2 {
		return resultFor(g, greedyComplete(gu, g, fullBudget, pre))
	}

	// Per-node linear bonus: edges into preselected nodes contribute
	// linearly once the node is fully selected.
	bonus := make([]float64, n)
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

	best := resultFor(g, greedyComplete(gu, g, fullBudget, pre))

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
			rng := rand.New(rand.NewSource(opts.Seed + int64(iter)*7919))
			side := make([]bool, n)
			for v := 0; v < n; v++ {
				side[v] = rng.Intn(2) == 0
			}
			st := newCountState(g, active, side, cint, bonus)
			k := intBudget / 2
			st.greedyFill(gu, k)
			st.localSearch(gu, opts.LocalSearchRounds)
			st.refill(true)  // L side, by per-copy degree desc
			st.refill(false) // R side
			var iterBest Result
			for _, cand := range st.finalize(intBudget) {
				nodes := append(append([]int(nil), pre...), cand...)
				nodes = greedyComplete(gu, g, fullBudget, nodes)
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

// greedyComplete spends any leftover budget on the best marginal
// weight-per-cost additions (heap-based; see greedyGrow).
func greedyComplete(gu *guard.Guard, g *wgraph.Graph, budget float64, nodes []int) []int {
	return greedyGrow(gu, g, budget, nodes)
}

// countState is the implicit blow-up graph Ĝ: every active node v stands
// for c′(v) unit-cost copies; edges across the bipartition have per-copy
// weight w(u,v)/(c′(u)·c′(v)). Selecting s(v) copies of every node
// reproduces the HkS solution on Ĝ without materializing it, which is what
// makes the blow-up scale (copies of a node are interchangeable).
type countState struct {
	g      *wgraph.Graph
	active []bool
	side   []bool // true = L
	c      []int  // copies per node
	s      []int  // selected copies
	bonus  []float64
}

func newCountState(g *wgraph.Graph, active, side []bool, c []int, bonus []float64) *countState {
	return &countState{
		g: g, active: active, side: side, c: c,
		s:     make([]int, g.NumNodes()),
		bonus: bonus,
	}
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
	t := 0
	for v, sv := range st.s {
		if st.active[v] {
			t += sv
		}
	}
	return t
}

// greedyFill places up to k unit copies, one at a time, always choosing
// the copy with the maximum marginal per-copy degree, ties to the lower
// node (lazy max-heap in canonical order). Gains only grow and every
// change pushes an entry at the new gain, so an entry below its node's
// current gain is stale and dropped. When no positive gain exists it
// seeds with the cross-edge of the highest per-copy-pair weight.
func (st *countState) greedyFill(gu *guard.Guard, k int) {
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
	placed := 0
	for placed < k {
		if gu.Check() {
			return
		}
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
			st.place(bu, gain, &h)
			st.place(bv, gain, &h)
			placed += 2
			continue
		}
		st.place(v, gain, &h)
		placed++
	}
}

func (st *countState) place(v int, gain []float64, h *maxHeap) {
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

// localSearch moves single units between nodes while that improves the
// count-space weight.
func (st *countState) localSearch(gu *guard.Guard, rounds int) {
	n := len(st.s)
	for round := 0; round < rounds; round++ {
		if gu.Check() {
			return
		}
		// Weakest selected unit.
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

// refill reassigns the units of one side greedily by per-copy degree
// (descending), filling nodes to capacity — the per-side-optimal fixed
// point of the paper's two-phase swapping procedure: afterwards at most
// one node on the side is partially selected, and the weight has not
// decreased (all moves go from lower- to higher-degree copies; intra-side
// moves do not change any copy's degree). For a fixed opposite side this
// is the best achievable arrangement; swap_test.go compares it against a
// literal implementation of the paper's phases.
func (st *countState) refill(left bool) {
	n := len(st.s)
	units := 0
	var nodes []int
	for v := 0; v < n; v++ {
		if st.active[v] && st.side[v] == left {
			units += st.s[v]
			st.s[v] = 0
			nodes = append(nodes, v)
		}
	}
	if units == 0 {
		return
	}
	deg := make([]float64, n)
	for _, v := range nodes {
		deg[v] = st.perCopyDeg(v)
	}
	slices.SortFunc(nodes, func(a, b int) int {
		return cmp.Or(cmp.Compare(deg[b], deg[a]), a-b)
	})
	for _, v := range nodes {
		if units == 0 {
			break
		}
		take := st.c[v]
		if take > units {
			take = units
		}
		st.s[v] = take
		units -= take
	}
}

// finalize applies the Theorem 4.7 final-selection analysis and returns
// candidate node sets (in original node IDs) to be evaluated by the
// caller. Every candidate consists of completely selected nodes only.
func (st *countState) finalize(intBudget int) [][]int {
	n := len(st.s)
	partials := make([]int, 0, 2)
	for v := 0; v < n; v++ {
		if st.active[v] && st.s[v] > 0 && st.s[v] < st.c[v] {
			partials = append(partials, v)
		}
	}
	remaining := intBudget - st.totalSelected()

	complete := func() []int {
		var out []int
		for v := 0; v < n; v++ {
			if st.active[v] && st.s[v] == st.c[v] {
				out = append(out, v)
			}
		}
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
