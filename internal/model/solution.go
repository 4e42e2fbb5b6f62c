package model

import (
	"slices"

	"repro/internal/propset"
)

// Solution is a mutable set of selected classifiers for one Instance,
// with utility/cost accounting under the exact-cover semantics of the
// paper: a query contributes its utility iff the union of the selected
// classifiers that are subsets of it equals it.
type Solution struct {
	inst     *Instance
	selected map[string]Classifier
}

// NewSolution returns an empty solution for the instance.
func NewSolution(in *Instance) *Solution {
	return &Solution{inst: in, selected: make(map[string]Classifier)}
}

// Instance returns the instance this solution belongs to.
func (s *Solution) Instance() *Instance { return s.inst }

// Add selects the classifier testing exactly props, at the instance's cost
// for it. Adding an already-selected classifier is a no-op. Add reports
// whether the classifier was newly selected.
func (s *Solution) Add(props propset.Set) bool {
	k := props.Key()
	if _, ok := s.selected[k]; ok {
		return false
	}
	s.selected[k] = Classifier{Props: props.Clone(), Cost: s.inst.Cost(props)}
	return true
}

// AddClassifier selects a classifier with an explicit cost, overriding the
// instance's cost lookup. Used by solvers that operate on transformed costs
// (e.g. residual problems where selected classifiers are free).
func (s *Solution) AddClassifier(c Classifier) bool {
	k := c.Props.Key()
	if _, ok := s.selected[k]; ok {
		return false
	}
	s.selected[k] = Classifier{Props: c.Props.Clone(), Cost: c.Cost}
	return true
}

// Remove deselects the classifier testing exactly props.
func (s *Solution) Remove(props propset.Set) {
	delete(s.selected, props.Key())
}

// Has reports whether the classifier testing exactly props is selected.
func (s *Solution) Has(props propset.Set) bool {
	_, ok := s.selected[props.Key()]
	return ok
}

// Size reports the number of selected classifiers.
func (s *Solution) Size() int { return len(s.selected) }

// Classifiers returns the selected classifiers in a deterministic order.
func (s *Solution) Classifiers() []Classifier {
	out := make([]Classifier, 0, len(s.selected))
	for _, c := range s.selected {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Classifier) int { return compareSets(a.Props, b.Props) })
	return out
}

// Cost returns the total construction cost of the selected classifiers,
// summed in Classifiers order so one plan always reports the same bits.
func (s *Solution) Cost() float64 {
	var sum float64
	for _, c := range s.Classifiers() {
		sum += c.Cost
	}
	return sum
}

// CoveredPart returns the union of the selected classifiers that are
// subsets of q — the portion of q's conjunction the solution can already
// test. q is covered iff CoveredPart(q) equals q.
func (s *Solution) CoveredPart(q propset.Set) propset.Set {
	var acc propset.Set
	q.Subsets(func(sub propset.Set) {
		if len(acc) == len(q) {
			return
		}
		if _, ok := s.selected[sub.Key()]; ok {
			acc = acc.Union(sub)
		}
	})
	return acc
}

// Covers reports whether query props is covered by the solution.
func (s *Solution) Covers(q propset.Set) bool {
	return s.CoveredPart(q).Equal(q)
}

// Residual returns the properties of q not yet testable by the solution:
// q minus CoveredPart(q). An empty residual means q is covered.
func (s *Solution) Residual(q propset.Set) propset.Set {
	return q.Minus(s.CoveredPart(q))
}

// Utility returns the total utility of the queries covered by the solution.
func (s *Solution) Utility() float64 {
	var sum float64
	for _, q := range s.inst.queries {
		if s.Covers(q.Props) {
			sum += q.Utility
		}
	}
	return sum
}

// CoveredQueries returns the subset of the instance's queries covered by
// the solution, in instance order.
func (s *Solution) CoveredQueries() []Query {
	var out []Query
	for _, q := range s.inst.queries {
		if s.Covers(q.Props) {
			out = append(out, q)
		}
	}
	return out
}

// Feasible reports whether the solution's cost is within the instance's
// budget, up to a small tolerance for floating-point accumulation.
func (s *Solution) Feasible() bool {
	const eps = 1e-9
	return s.Cost() <= s.inst.Budget()*(1+eps)+eps
}

// Clone returns an independent copy of the solution.
func (s *Solution) Clone() *Solution {
	out := NewSolution(s.inst)
	for k, c := range s.selected {
		out.selected[k] = c
	}
	return out
}

// Merge adds every classifier of other into s (keeping s's existing costs
// on conflicts).
func (s *Solution) Merge(other *Solution) {
	for k, c := range other.selected {
		if _, ok := s.selected[k]; !ok {
			s.selected[k] = c
		}
	}
}
