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
	sets := make([]propset.Set, 0, len(plan))
	for _, names := range plan {
		ids := make([]propset.ID, 0, len(names))
		ok := true
		for _, n := range names {
			id, found := u.Lookup(n)
			if !found {
				ok = false
				break
			}
			ids = append(ids, id)
		}
		if ok && len(ids) > 0 {
			sets = append(sets, propset.New(ids...))
		}
	}
	return RepairSets(in, sets)
}

// RepairSets is the delta repair rule. Given candidate classifier sets
// from a previous plan, it returns a subset that is feasible and lean for
// the present instance:
//
//  1. Stale sets — duplicates, sets outside CL (infinite cost) — are
//     dropped.
//  2. Survivors are selected greedily by marginal-coverage-per-cost: a
//     candidate's score credits both queries it completes and partial
//     residual progress (so two half-covers of one query are kept as a
//     pair), and only candidates fitting the remaining budget are
//     eligible. This restores feasibility after a budget cut.
//  3. A reverse peel removes any selected set whose removal leaves
//     utility unchanged — budget spent on nothing is returned to the
//     solver.
//
// The result is deterministic (score, then cost, then canonical key) and
// never exceeds in.Budget(). An empty result is valid: it means nothing
// of the old plan survived, and the solve proceeds cold.
func RepairSets(in *model.Instance, sets []propset.Set) []propset.Set {
	// Stage 1: stale filter.
	cands := make([]propset.Set, 0, len(sets))
	seen := make(map[string]bool, len(sets))
	for _, s := range sets {
		if s.Empty() || seen[s.Key()] {
			continue
		}
		if math.IsInf(in.Cost(s), 1) {
			continue
		}
		seen[s.Key()] = true
		cands = append(cands, s)
	}
	if len(cands) == 0 {
		return nil
	}

	// Stage 2: greedy budget-feasible selection. A finite-cost set
	// outside CL covers nothing, so it never scores.
	t := cover.New(in)
	idx := make([]int, len(cands))
	for i, c := range cands {
		idx[i] = -1
		if ci, ok := in.ClassifierIndex(c); ok {
			idx[i] = ci
		}
	}
	used := make([]bool, len(cands))
	var order []int
	for {
		best, bestScore, bestCost := -1, 0.0, 0.0
		for i, c := range cands {
			if used[i] || idx[i] < 0 {
				continue
			}
			cost := in.Classifiers()[idx[i]].Cost
			if t.Cost()+cost > in.Budget()+1e-9 {
				continue
			}
			// Coverage progress: each uncovered query containing c earns
			// its utility times the share of its residual c would test.
			score := t.ProgressGain(idx[i])
			if score <= 0 {
				continue
			}
			if cost > 0 {
				score /= cost
			} else {
				score = math.Inf(1)
			}
			if best < 0 || score > bestScore ||
				(score == bestScore && (cost < bestCost ||
					(cost == bestCost && c.Key() < cands[best].Key()))) {
				best, bestScore, bestCost = i, score, cost
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		t.AddIndex(idx[best])
		order = append(order, best)
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

// Floor is the runtime quality floor every warm path is held to: the
// utility of a cold IG1 greedy solve. Incremental solving is a speedup,
// never a quality downgrade — the solver registry answers a warm run
// that lands below this floor with the IG1 plan itself
// (algo.Descriptor.WarmStart). The eval floors are calibrated against
// best-known utilities offline; IG1 is the online-computable stand-in.
func Floor(in *model.Instance) float64 {
	return core.SolveIG1(in).Utility
}
