// Package incr is the incremental-computation substrate: it turns a plan
// solved for one instance into a budget-feasible warm seed for a drifted
// sibling of that instance, and quantifies the drift itself.
//
// Production workloads change a little at a time — a few queries appear
// or vanish, utilities shift, the budget moves — so the previous plan is
// almost always a high-quality starting point. Every warm path in the
// system funnels through this package:
//
//   - the server seeds request- and sibling-cache warm starts
//     (internal/server, via the bccfp2/1 sibling index in
//     internal/solvecache),
//   - the gateway peer-fills a rendezvous-remapped owner from the
//     previous owner's cache (internal/cluster),
//   - the pipeline chains each tumbling window from the last published
//     plan (internal/pipeline),
//   - bccsolve -warm-from seeds a CLI solve from a saved plan file.
//
// Plans cross instance (and process) boundaries as classifier
// property-NAME sets, never propset IDs: IDs are universe-local interning
// accidents. Repair re-interns the names, drops what went stale, and
// restores budget feasibility — the receiving solver then only runs
// residual work (algo.Params.Warm).
package incr

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/model"
	"repro/internal/propset"
)

// Delta quantifies how one instance drifted from another. Queries are
// matched by their canonical conjunction (sorted property names), so the
// counts are independent of interning and insertion order.
type Delta struct {
	// Added is the number of conjunctions in next but not in prev.
	Added int
	// Removed is the number of conjunctions in prev but not in next.
	Removed int
	// Changed is the number of shared conjunctions whose utility differs.
	Changed int
	// Unchanged is the number of shared conjunctions with equal utility.
	Unchanged int
	// BudgetDelta is next.Budget() − prev.Budget().
	BudgetDelta float64
}

// Churn is the fraction of next's query set that did not carry over
// unchanged from prev — the drift rate warm-start speedups are measured
// against.
func (d Delta) Churn() float64 {
	n := d.Added + d.Changed + d.Unchanged
	if n == 0 {
		return 0
	}
	return float64(d.Added+d.Changed) / float64(n)
}

// Diff computes the query- and budget-level delta from prev to next.
func Diff(prev, next *model.Instance) Delta {
	prevU := make(map[string]float64, next.NumQueries())
	for _, q := range prev.Queries() {
		prevU[queryKey(prev.Universe(), q.Props)] = q.Utility
	}
	var d Delta
	for _, q := range next.Queries() {
		k := queryKey(next.Universe(), q.Props)
		u, ok := prevU[k]
		if !ok {
			d.Added++
			continue
		}
		delete(prevU, k)
		if u == q.Utility {
			d.Unchanged++
		} else {
			d.Changed++
		}
	}
	d.Removed = len(prevU)
	d.BudgetDelta = next.Budget() - prev.Budget()
	return d
}

// queryKey renders a property set as its sorted names, length-prefix
// separated — the same universe-independent canonical form bccfp2/1
// hashes.
func queryKey(u *propset.Universe, s propset.Set) string {
	names := make([]string, s.Len())
	for i, id := range s {
		names[i] = u.Name(id)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(strconv.Itoa(len(n)))
		b.WriteByte(':')
		b.WriteString(n)
	}
	return b.String()
}

// Repair re-interns a plan expressed as classifier property-name sets
// into in's universe and repairs it to a budget-feasible warm seed (see
// RepairSets). Classifiers naming a property in's universe has never seen
// are stale by construction and dropped.
func Repair(in *model.Instance, plan [][]string) []propset.Set {
	u := in.Universe()
	n := 0
	for _, names := range plan {
		n += len(names)
	}
	ids := make([]propset.ID, 0, n) // backs every set
	sets := make([]propset.Set, 0, len(plan))
	for _, names := range plan {
		start := len(ids)
		for _, name := range names {
			id, found := u.Lookup(name)
			if !found {
				ids = ids[:start]
				break
			}
			ids = append(ids, id)
		}
		if len(ids) > start {
			s := propset.Set(ids[start:len(ids):len(ids)])
			slices.Sort(s)
			sets = append(sets, slices.Compact(s))
		}
	}
	return RepairSets(in, sets)
}

// RepairSets is the delta repair rule. Given candidate classifier sets
// from a previous plan, it returns a subset that is feasible and lean for
// the present instance:
//
//  1. Stale sets — duplicates, sets outside CL — are dropped. A set
//     outside CL covers nothing, so it could never be picked below.
//  2. Survivors are selected greedily by marginal-coverage-per-cost: a
//     candidate's score credits both queries it completes and partial
//     residual progress (so two half-covers of one query are kept as a
//     pair), and only candidates fitting the remaining budget are
//     eligible. This restores feasibility after a budget cut.
//  3. A reverse peel removes any selected set whose removal leaves
//     utility unchanged — budget spent on nothing is returned to the
//     solver.
//
// The result is deterministic (score, then cost, then property IDs) and
// never exceeds in.Budget(). An empty result is valid: it means nothing
// of the old plan survived, and the solve proceeds cold.
func RepairSets(in *model.Instance, sets []propset.Set) []propset.Set {
	if len(sets) == 0 {
		return nil
	}
	// Stage 1: stale filter. candOf maps a classifier index to its
	// candidate, −1 for none.
	cls := in.Classifiers()
	candOf := make([]int32, len(cls))
	for i := range candOf {
		candOf[i] = -1
	}
	var (
		cands []propset.Set
		idx   []int
	)
	for _, s := range sets {
		ci, ok := in.ClassifierIndex(s)
		if !ok || candOf[ci] >= 0 {
			continue
		}
		candOf[ci] = int32(len(cands))
		cands = append(cands, s)
		idx = append(idx, ci)
	}
	if len(cands) == 0 {
		return nil
	}

	// Stage 2: greedy budget-feasible selection, best candidate first.
	t := cover.New(in)
	g := &greedy{
		sets:  cands,
		score: make([]float64, len(cands)),
		cost:  make([]float64, len(cands)),
		at:    make([]int32, len(cands)),
		heap:  make([]int32, 0, len(cands)),
	}
	for i, ci := range idx {
		g.cost[i] = cls[ci].Cost
		g.at[i] = -1
		g.reprice(i, t.ProgressGain(ci))
	}
	// done marks the candidates picked, and those out of the budget:
	// spending only grows, so a candidate that does not fit now never
	// will.
	done := make([]bool, len(cands))
	var order, touched []int
	for len(g.heap) > 0 {
		best := int(g.heap[0])
		g.remove(best)
		done[best] = true
		if t.Cost()+g.cost[best] > in.Budget()+1e-9 {
			continue
		}
		order = append(order, best)
		// Only the queries whose residual the pick shrinks change, and
		// with them the gains of the candidates they contain.
		touched = touched[:0]
		qs, masks := t.Occurrences(idx[best])
		for j, qi := range qs {
			if t.ResidualMask(qi)&masks[j] != 0 {
				touched = append(touched, qi)
			}
		}
		t.AddIndex(idx[best])
		for _, qi := range touched {
			for _, ci := range in.SubsetTable(qi) {
				if ci < 0 {
					continue
				}
				if i := candOf[ci]; i >= 0 && !done[i] {
					g.reprice(int(i), t.ProgressGain(int(ci)))
				}
			}
		}
	}

	// Stage 3: reverse peel of zero-contribution picks.
	kept := make([]bool, len(cands))
	for _, i := range order {
		kept[i] = true
	}
	for j := len(order) - 1; j >= 0; j-- {
		i := order[j]
		before := t.Utility()
		t.RemoveIndex(idx[i])
		if t.Utility() < before-1e-9 {
			t.AddIndex(idx[i])
		} else {
			kept[i] = false
		}
	}

	var out []propset.Set
	for _, i := range order {
		if kept[i] {
			out = append(out, cands[i])
		}
	}
	return out
}

// greedy is RepairSets' selection state: each candidate's score from
// its cached coverage progress, and a binary max-heap of the candidates
// with positive progress, best first. at[i] is candidate i's position in
// heap, −1 when it is not there.
type greedy struct {
	sets  []propset.Set
	score []float64
	cost  []float64
	at    []int32
	heap  []int32
}

// reprice scores candidate i by its coverage progress gain, entering it
// into the heap, moving it there or taking it out. Coverage progress
// credits each uncovered query containing the candidate with its
// utility times the share of its residual the candidate would test; a
// zero-cost candidate with any progress scores +Inf.
func (g *greedy) reprice(i int, gain float64) {
	if gain <= 0 {
		if g.at[i] >= 0 {
			g.remove(i)
		}
		return
	}
	g.score[i] = math.Inf(1)
	if g.cost[i] > 0 {
		g.score[i] = gain / g.cost[i]
	}
	if g.at[i] < 0 {
		g.at[i] = int32(len(g.heap))
		g.heap = append(g.heap, int32(i))
	}
	g.fix(int(g.at[i]))
}

// better orders candidates by score descending, then cost ascending,
// then property IDs ascending, which is the order of their keys.
func (g *greedy) better(a, b int32) bool {
	if g.score[a] != g.score[b] {
		return g.score[a] > g.score[b]
	}
	if g.cost[a] != g.cost[b] {
		return g.cost[a] < g.cost[b]
	}
	return slices.Compare(g.sets[a], g.sets[b]) < 0
}

// remove takes candidate i out of the heap.
func (g *greedy) remove(i int) {
	p := int(g.at[i])
	last := len(g.heap) - 1
	g.swap(p, last)
	g.heap = g.heap[:last]
	g.at[i] = -1
	if p < last {
		g.fix(p)
	}
}

// fix restores the heap order around position p after its candidate's
// score changed.
func (g *greedy) fix(p int) {
	for p > 0 {
		parent := (p - 1) / 2
		if !g.better(g.heap[p], g.heap[parent]) {
			break
		}
		g.swap(p, parent)
		p = parent
	}
	for {
		c := 2*p + 1
		if c >= len(g.heap) {
			return
		}
		if c+1 < len(g.heap) && g.better(g.heap[c+1], g.heap[c]) {
			c++
		}
		if !g.better(g.heap[c], g.heap[p]) {
			return
		}
		g.swap(p, c)
		p = c
	}
}

func (g *greedy) swap(p, q int) {
	g.heap[p], g.heap[q] = g.heap[q], g.heap[p]
	g.at[g.heap[p]] = int32(p)
	g.at[g.heap[q]] = int32(q)
}

// Floor is the runtime quality floor every warm path is held to: the
// utility of a cold IG1 greedy solve. Incremental solving is a speedup,
// never a quality downgrade — the solver registry answers a warm run
// that lands below this floor with the IG1 plan itself
// (algo.Descriptor.WarmStart). The eval floors are calibrated against
// best-known utilities offline; IG1 is the online-computable stand-in.
func Floor(in *model.Instance) float64 {
	return core.SolveIG1(in).Utility
}
