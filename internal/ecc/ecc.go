// Package ecc implements the Effective Classifier Construction problem
// (Definition 5.2 of the paper): find the classifier set maximizing the
// ratio of covered utility to construction cost — "bang for the buck" when
// the budget is flexible.
//
// Following Theorem 5.4, A^ECC reduces the problem to Densest Subgraph:
// for l = 2, singleton classifiers become nodes (weight = cost), length-2
// queries become edges (weight = utility), and singleton queries attach to
// a zero-cost vertex v*; the DS optimum over this graph is compared with
// the best single exact-match classifier, and the better ratio wins —
// which is exact for l = 2. For l > 2 the construction generalizes to a
// hypergraph of minimal covers solved by greedy peeling (the O(1)-
// approximation the paper's experiments used).
//
// The RAND(E), IG1(E) and IG2(E) baselines run their BCC counterparts
// without a budget until all queries are covered, returning the prefix of
// selections with the best ratio observed.
package ecc

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/densest"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/propset"
	"repro/internal/wgraph"
)

// Result reports an ECC run.
type Result struct {
	Solution *model.Solution
	Utility  float64
	Cost     float64
	// Ratio is Utility/Cost (+Inf when Cost is 0 and Utility > 0).
	Ratio float64
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended; a non-Complete result still holds
	// the best candidate evaluated before the interruption.
	Status guard.Status
	// Err is the context error or contained panic for a non-Complete run.
	Err error
}

func ratio(u, c float64) float64 {
	if c <= 0 {
		if u > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return u / c
}

func resultOf(in *model.Instance, classifiers []propset.Set, start time.Time) Result {
	s := model.NewSolution(in)
	for _, c := range classifiers {
		s.Add(c)
	}
	u, c := s.Utility(), s.Cost()
	return Result{Solution: s, Utility: u, Cost: c, Ratio: ratio(u, c), Duration: time.Since(start)}
}

// maxMinimalCoversPerQuery caps hyperedge enumeration for long queries;
// the constant bound exists because l = O(1) (see Theorem 5.4's proof).
const maxMinimalCoversPerQuery = 256

// Solve runs A^ECC on the instance (the budget field is ignored).
func Solve(in *model.Instance) Result {
	return SolveCtx(context.Background(), in)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation it
// returns the best-ratio candidate evaluated so far, with Result.Status
// reporting why it stopped; contained panics surface as Status Recovered.
func SolveCtx(ctx context.Context, in *model.Instance) (res Result) {
	start := time.Now()
	g := guard.New(ctx)

	best := Result{}
	finish := func() Result {
		r := best
		if r.Solution == nil {
			r.Solution = model.NewSolution(in)
		}
		r.Duration = time.Since(start)
		r.Status = g.Status()
		r.Err = g.Err()
		return r
	}
	defer func() {
		if p := recover(); p != nil {
			g.NotePanic(p)
			res = finish()
		}
	}()
	if g.Tripped() {
		return finish()
	}
	guard.Inject("ecc.solve")

	// Candidate 1: the best single exact-match classifier. A single
	// classifier covers exactly the identical query.
	for _, q := range in.Queries() {
		if g.Check() {
			break
		}
		c := in.Cost(q.Props)
		if math.IsInf(c, 1) {
			continue
		}
		if r := ratio(q.Utility, c); r > best.Ratio {
			best = resultOf(in, []propset.Set{q.Props}, start)
		}
	}

	// Candidate 2: densest subgraph over sub-classifiers.
	if !g.Tripped() {
		rec := obs.FromContext(ctx)
		t0 := rec.Start()
		var bestDS Result
		if in.MaxQueryLength() <= 2 {
			bestDS = solveGraphDS(g, in, start)
		} else {
			bestDS = solveHypergraphDS(g, in, start)
		}
		rec.End(obs.StageECC, t0, in.NumQueries())
		if bestDS.Ratio > best.Ratio {
			best = bestDS
		}
	}
	// Candidates 3 and 4 (l > 2 only, where the hypergraph peeling is just
	// an r-approximation): the greedy best-ratio prefixes. For l ≤ 2 the DS
	// candidate is provably optimal and the extra work is skipped.
	if in.MaxQueryLength() > 2 && !g.Tripped() {
		if r := SolveIG2(in); r.Ratio > best.Ratio {
			best = r
		}
		if r := SolveIG1(in); r.Ratio > best.Ratio {
			best = r
		}
	}
	return finish()
}

// solveGraphDS is the exact l ≤ 2 reduction: nodes are singleton
// classifiers, edges are queries, v* anchors singletons.
func solveGraphDS(g *guard.Guard, in *model.Instance, start time.Time) Result {
	// Index singleton classifiers with finite cost.
	idx := map[propset.ID]int{}
	var props []propset.ID
	nodeOf := func(p propset.ID) int {
		if i, ok := idx[p]; ok {
			return i
		}
		i := len(props)
		idx[p] = i
		props = append(props, p)
		return i
	}
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	for _, q := range in.Queries() {
		if g.Check() {
			return Result{}
		}
		switch q.Props.Len() {
		case 1:
			if math.IsInf(in.Cost(q.Props), 1) {
				continue
			}
			edges = append(edges, edge{u: nodeOf(q.Props[0]), v: -1, w: q.Utility})
		case 2:
			cx := in.Cost(propset.New(q.Props[0]))
			cy := in.Cost(propset.New(q.Props[1]))
			if math.IsInf(cx, 1) || math.IsInf(cy, 1) {
				continue // only coverable by the pair classifier (candidate 1)
			}
			edges = append(edges, edge{u: nodeOf(q.Props[0]), v: nodeOf(q.Props[1]), w: q.Utility})
		}
	}
	if len(edges) == 0 {
		return Result{}
	}
	wg := wgraph.New(len(props) + 1)
	vStar := len(props)
	wg.SetCost(vStar, 0)
	for i, p := range props {
		wg.SetCost(i, in.Cost(propset.New(p)))
	}
	for _, e := range edges {
		v := e.v
		if v < 0 {
			v = vStar
		}
		wg.AddEdgeMerged(e.u, v, e.w)
	}
	ds := densest.ExactGraph(wg)
	var sel []propset.Set
	for _, v := range ds.Nodes {
		if v != vStar {
			sel = append(sel, propset.New(props[v]))
		}
	}
	if len(sel) == 0 {
		return Result{}
	}
	return resultOf(in, sel, start)
}

// solveHypergraphDS is the l > 2 generalization: vertices are classifiers
// of length ≤ l−1, hyperedges are minimal covers of each query.
func solveHypergraphDS(g *guard.Guard, in *model.Instance, start time.Time) Result {
	l := in.MaxQueryLength()
	vIdx := map[string]int{}
	var vSets []propset.Set
	vertexOf := func(c propset.Set) int {
		k := c.Key()
		if i, ok := vIdx[k]; ok {
			return i
		}
		i := len(vSets)
		vIdx[k] = i
		vSets = append(vSets, c.Clone())
		return i
	}

	var h densest.Hypergraph
	for _, q := range in.Queries() {
		if g.Check() {
			return Result{}
		}
		covers := minimalCovers(in, q.Props, l-1)
		for _, cov := range covers {
			nodes := make([]int, len(cov))
			for i, c := range cov {
				nodes[i] = vertexOf(c)
			}
			h.Edges = append(h.Edges, densest.HEdge{Nodes: nodes, W: q.Utility})
		}
	}
	if len(h.Edges) == 0 {
		return Result{}
	}
	h.NodeCost = make([]float64, len(vSets))
	for i, c := range vSets {
		h.NodeCost[i] = in.Cost(c)
	}
	ds := densest.PeelHypergraph(h)
	var sel []propset.Set
	for _, v := range ds.Nodes {
		sel = append(sel, vSets[v])
	}
	if len(sel) == 0 {
		return Result{}
	}
	return resultOf(in, sel, start)
}

// minimalCovers enumerates the minimal classifier sets covering q using
// finite-cost classifiers of length ≤ maxPart, capped at
// maxMinimalCoversPerQuery.
func minimalCovers(in *model.Instance, q propset.Set, maxPart int) [][]propset.Set {
	var parts []propset.Set
	q.Subsets(func(sub propset.Set) {
		if sub.Len() > maxPart {
			return
		}
		if math.IsInf(in.Cost(sub), 1) {
			return
		}
		parts = append(parts, sub.Clone())
	})
	var out [][]propset.Set
	var cur []propset.Set
	var rec func(uncovered propset.Set, startIdx int)
	rec = func(uncovered propset.Set, startIdx int) {
		if len(out) >= maxMinimalCoversPerQuery {
			return
		}
		if uncovered.Empty() {
			// Minimality: every part must contribute a unique property.
			for i, c := range cur {
				var rest propset.Set
				for j, d := range cur {
					if i != j {
						rest = rest.Union(d)
					}
				}
				if c.SubsetOf(rest) {
					return // redundant part ⇒ not minimal
				}
			}
			out = append(out, append([]propset.Set(nil), cur...))
			return
		}
		// Branch over parts containing the first uncovered property.
		p := uncovered[0]
		for i := startIdx; i < len(parts); i++ {
			if !parts[i].Contains(p) {
				continue
			}
			cur = append(cur, parts[i])
			rec(uncovered.Minus(parts[i]), 0)
			cur = cur[:len(cur)-1]
		}
	}
	rec(q, 0)
	return dedupeCovers(out)
}

func dedupeCovers(covers [][]propset.Set) [][]propset.Set {
	seen := map[string]bool{}
	var out [][]propset.Set
	for _, cov := range covers {
		keys := make([]string, len(cov))
		for i, c := range cov {
			keys[i] = c.Key()
		}
		// Order-insensitive signature.
		sortStrings(keys)
		sig := ""
		for _, k := range keys {
			sig += k + "|"
		}
		if !seen[sig] {
			seen[sig] = true
			out = append(out, cov)
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SolveRand is RAND(E): select random classifiers until every coverable
// query is covered, returning the prefix with the best observed ratio.
// It runs RAND's shared selection loop (core.RandLoop) without a budget.
func SolveRand(in *model.Instance, seed int64) Result {
	start := time.Now()
	p := &bestPrefix{t: cover.New(in)}
	core.RandLoop(p.t, seed, false, nil, p.selected)
	return p.result(start)
}

// SolveIG1 is IG1(E): greedy per-query covers until everything coverable
// is covered; output the best-ratio prefix. It runs IG1's shared
// selection loop (core.IG1Loop) without a budget.
func SolveIG1(in *model.Instance) Result {
	start := time.Now()
	p := &bestPrefix{t: cover.New(in)}
	core.IG1Loop(p.t, false, nil, p.selected)
	return p.result(start)
}

// SolveIG2 is IG2(E): greedy single-classifier ratio selection until
// everything coverable is covered; output the best-ratio prefix. It runs
// IG2's shared selection loop (core.IG2Loop) without a budget.
func SolveIG2(in *model.Instance) Result {
	start := time.Now()
	p := &bestPrefix{t: cover.New(in)}
	core.IG2Loop(p.t, false, nil, p.selected)
	return p.result(start)
}

// bestPrefix records a baseline's selections in order, and the length
// and ratio of the best-ratio prefix that ends at a selection.
type bestPrefix struct {
	t     *cover.Tracker
	order []propset.Set
	n     int
	ratio float64
}

// selected is the selection callback of the core loops: it appends the
// selected classifiers to the order and scores the new prefix.
func (p *bestPrefix) selected(sel []int32) {
	cls := p.t.Instance().Classifiers()
	for _, ci := range sel {
		p.order = append(p.order, cls[ci].Props)
	}
	if r := ratio(p.t.Utility(), p.t.Cost()); r > p.ratio {
		p.ratio, p.n = r, len(p.order)
	}
}

func (p *bestPrefix) result(start time.Time) Result {
	return resultOf(p.t.Instance(), p.order[:p.n], start)
}
