// Package model defines the Budgeted Classifier Construction problem
// instance ⟨Q, U, C, B⟩ and its coverage semantics.
//
// A query is a conjunction of properties that must all hold for every item
// in its result set; a classifier tests the conjunction of its own property
// set for a given item. A query q is covered by a classifier set S iff some
// subset T ⊆ S satisfies P(T) = q, i.e. the union of the properties tested
// by T is exactly q — equivalently, iff the union of all classifiers in S
// that are subsets of q equals q.
//
// The candidate classifier set CL is the union of the power sets of all
// queries (minus the empty set): classifiers that are not a subset of any
// query can never participate in a cover and are excluded a priori.
package model

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/propset"
)

// Query is a search query: a conjunction of properties together with the
// utility gained by covering it.
type Query struct {
	Props   propset.Set
	Utility float64
}

// Length reports the number of conjuncts in the query.
func (q Query) Length() int { return q.Props.Len() }

// Classifier is a candidate binary classifier: the property conjunction it
// tests together with its construction cost. A cost of 0 means the
// classifier already exists; +Inf means construction is considered
// impractical and the classifier is excluded from the solution space.
type Classifier struct {
	Props propset.Set
	Cost  float64
}

// Length reports the number of properties the classifier tests.
func (c Classifier) Length() int { return c.Props.Len() }

// Instance is a complete BCC problem instance. Build one with Builder.
// Instances are immutable after construction and safe for concurrent use.
type Instance struct {
	universe *propset.Universe
	queries  []Query
	budget   float64

	costs       map[string]float64
	defaultCost func(propset.Set) float64

	classifiers []Classifier   // enumerated CL, finite-cost only, sorted
	byKey       map[string]int // classifier key -> index into classifiers
	maxLen      int            // the paper's length parameter l

	// subsets holds every query's subset table back to back; query qi's
	// table is subsets[subsetOff[qi]:subsetOff[qi+1]] (see SubsetTable).
	subsets   []int32
	subsetOff []int
}

// Universe returns the property universe of the instance.
func (in *Instance) Universe() *propset.Universe { return in.universe }

// Queries returns the query set Q. Callers must not modify it.
func (in *Instance) Queries() []Query { return in.queries }

// Budget returns the construction budget B.
func (in *Instance) Budget() float64 { return in.budget }

// NumProperties returns n = |P|, the number of distinct properties.
func (in *Instance) NumProperties() int { return in.universe.Size() }

// NumQueries returns m = |Q|.
func (in *Instance) NumQueries() int { return len(in.queries) }

// MaxQueryLength returns the length parameter l, the maximum number of
// conjuncts in any query.
func (in *Instance) MaxQueryLength() int { return in.maxLen }

// Classifiers returns the enumerated candidate set CL, excluding
// infinite-cost classifiers. Callers must not modify the returned slice.
func (in *Instance) Classifiers() []Classifier { return in.classifiers }

// SubsetTable returns query qi's subset → classifier table. Entry m−1
// is the index into Classifiers of the subset that bit mask m picks
// from the query's sorted properties (bit i selects Props[i]), or −1
// when that subset is not in CL because it is priced +Inf. The table has
// 2^Length − 1 entries. Callers must not modify it.
func (in *Instance) SubsetTable(qi int) []int32 {
	return in.subsets[in.subsetOff[qi]:in.subsetOff[qi+1]]
}

// ClassifierIndex returns the index into Classifiers of the classifier
// testing exactly props, and whether such a (finite-cost) candidate exists.
func (in *Instance) ClassifierIndex(props propset.Set) (int, bool) {
	i, ok := in.byKey[props.Key()]
	return i, ok
}

// Cost returns the construction cost of the classifier testing exactly
// props. Classifiers outside CL or explicitly priced +Inf return +Inf.
func (in *Instance) Cost(props propset.Set) float64 {
	key := props.Key()
	if c, ok := in.costs[key]; ok {
		return c
	}
	if i, ok := in.byKey[key]; ok {
		return in.classifiers[i].Cost
	}
	return math.Inf(1)
}

// TotalUtility returns the sum of all query utilities — the objective value
// of a solution covering every query.
func (in *Instance) TotalUtility() float64 {
	var sum float64
	for _, q := range in.queries {
		sum += q.Utility
	}
	return sum
}

// WithBudget returns a copy of the instance with a different budget. The
// copy shares all other (immutable) state.
func (in *Instance) WithBudget(b float64) *Instance {
	out := *in
	out.budget = b
	return &out
}

// Builder accumulates queries and classifier costs and produces an
// immutable Instance.
type Builder struct {
	universe  *propset.Universe
	utilities map[string]float64
	order     []propset.Set // query insertion order, deduplicated
	costs     map[string]float64
	defCost   func(propset.Set) float64
}

// NewBuilder returns a Builder with a fresh property universe.
func NewBuilder() *Builder {
	return NewBuilderWithUniverse(propset.NewUniverse())
}

// NewBuilderWithUniverse returns a Builder interning into an existing
// universe, allowing several instances to share property IDs.
func NewBuilderWithUniverse(u *propset.Universe) *Builder {
	return &Builder{
		universe:  u,
		utilities: make(map[string]float64),
		costs:     make(map[string]float64),
	}
}

// Universe exposes the builder's property universe.
func (b *Builder) Universe() *propset.Universe { return b.universe }

// AddQuery records a query given by property names. Adding the same
// property set twice accumulates utility (two workload entries for the same
// conjunction are one query whose importance is their combined score).
func (b *Builder) AddQuery(utility float64, props ...string) *Builder {
	return b.AddQuerySet(b.universe.SetOf(props...), utility)
}

// AddQuerySet records a query given by an already-interned property set.
func (b *Builder) AddQuerySet(s propset.Set, utility float64) *Builder {
	if s.Empty() {
		return b
	}
	k := s.Key()
	if _, seen := b.utilities[k]; !seen {
		b.order = append(b.order, s.Clone())
	}
	b.utilities[k] += utility
	return b
}

// SetCost fixes the construction cost of the classifier testing exactly the
// named properties. Use math.Inf(1) to exclude a classifier, 0 for an
// already-constructed one.
func (b *Builder) SetCost(cost float64, props ...string) *Builder {
	return b.SetCostSet(b.universe.SetOf(props...), cost)
}

// SetCostSet fixes a classifier cost by property set.
func (b *Builder) SetCostSet(s propset.Set, cost float64) *Builder {
	b.costs[s.Key()] = cost
	return b
}

// SetDefaultCost installs the cost model used for classifiers without an
// explicit SetCost. When nil, unpriced classifiers cost 1 (uniform costs,
// the paper's convention when estimates are unavailable).
func (b *Builder) SetDefaultCost(fn func(propset.Set) float64) *Builder {
	b.defCost = fn
	return b
}

// Instance enumerates CL and freezes the problem with the given budget.
func (b *Builder) Instance(budget float64) (*Instance, error) {
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("model: invalid budget %v", budget)
	}
	if len(b.order) == 0 {
		return nil, errors.New("model: instance has no queries")
	}
	in := &Instance{
		universe:    b.universe,
		budget:      budget,
		costs:       b.costs,
		defaultCost: b.defCost,
	}
	in.queries = make([]Query, 0, len(b.order))
	for _, s := range b.order {
		u := b.utilities[s.Key()]
		if u < 0 || math.IsNaN(u) {
			return nil, fmt.Errorf("model: invalid utility %v for query %v", u, s)
		}
		in.queries = append(in.queries, Query{Props: s, Utility: u})
		if s.Len() > in.maxLen {
			in.maxLen = s.Len()
		}
	}
	// Enumerate CL = ∪_q 2^q \ ∅, dropping infinite-cost classifiers,
	// and fill each query's subset table with enumeration positions
	// (Subsets visits the masks in ascending order).
	total := 0
	for _, q := range in.queries {
		if q.Props.Len() <= 30 { // longer ones make Subsets panic below
			total += 1<<q.Props.Len() - 1
		}
	}
	in.subsets = make([]int32, 0, total)
	in.subsetOff = make([]int, 1, len(in.queries)+1)
	pos := make(map[string]int) // key -> enumeration position, -1 when +Inf
	for _, q := range in.queries {
		q.Props.Subsets(func(sub propset.Set) {
			k := sub.Key()
			p, ok := pos[k]
			if !ok {
				p = -1
				cost, priced := b.costs[k]
				if !priced {
					if b.defCost != nil {
						cost = b.defCost(sub)
					} else {
						cost = 1
					}
				}
				if !math.IsInf(cost, 1) {
					if cost < 0 || math.IsNaN(cost) {
						// Report via sentinel; surfaced after enumeration.
						cost = math.NaN()
					}
					p = len(in.classifiers)
					in.classifiers = append(in.classifiers, Classifier{Props: sub, Cost: cost})
				}
				pos[k] = p
			}
			in.subsets = append(in.subsets, int32(p))
		})
		in.subsetOff = append(in.subsetOff, len(in.subsets))
	}
	for _, c := range in.classifiers {
		if math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("model: invalid (negative or NaN) cost for classifier %v", c.Props)
		}
	}
	// Deterministic order: by length, then lexicographic key. rank maps
	// an enumeration position to its sorted index.
	order := make([]int, len(in.classifiers))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		return compareSets(in.classifiers[i].Props, in.classifiers[j].Props)
	})
	rank := make([]int32, len(order))
	sorted := make([]Classifier, len(order))
	for i, p := range order {
		rank[p] = int32(i)
		sorted[i] = in.classifiers[p]
	}
	in.classifiers = sorted
	for i, p := range in.subsets {
		if p >= 0 {
			in.subsets[i] = rank[p]
		}
	}
	for k, p := range pos {
		if p < 0 {
			delete(pos, k)
		} else {
			pos[k] = int(rank[p])
		}
	}
	in.byKey = pos
	return in, nil
}

// MustInstance is Instance, panicking on error. Intended for tests and
// hand-built examples.
func (b *Builder) MustInstance(budget float64) *Instance {
	in, err := b.Instance(budget)
	if err != nil {
		panic(err)
	}
	return in
}

// compareSets orders property sets by length, then lexicographically by
// property ID. Key encodes IDs as fixed-width big-endian bytes, so this
// is the (Len, Key) order, computed without allocating keys.
func compareSets(a, b propset.Set) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return slices.Compare(a, b)
}
