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
	"math/bits"
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

	classifiers []Classifier // enumerated CL, finite-cost only, sorted
	// index numbers each classifier by its index into classifiers, and
	// after them the sets priced explicitly but contained in no query,
	// whose prices are outside[n − len(classifiers)].
	index   propset.Index
	outside []float64
	maxLen  int // the paper's length parameter l

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
	if i, _ := in.index.Find(props); i >= 0 && i < len(in.classifiers) {
		return i, true
	}
	return 0, false
}

// Cost returns the construction cost of the classifier testing exactly
// props. Classifiers outside CL or explicitly priced +Inf return +Inf;
// a set contained in no query returns its explicit price, if it has one.
func (in *Instance) Cost(props propset.Set) float64 {
	i, _ := in.index.Find(props)
	switch {
	case i < 0:
		return math.Inf(1)
	case i < len(in.classifiers):
		return in.classifiers[i].Cost
	default:
		return in.outside[i-len(in.classifiers)]
	}
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
	queries   propset.Index // distinct non-empty queries, in insertion order
	utilities []float64     // by query number
	priced    propset.Index // sets given an explicit price
	prices    []float64     // by priced number
	defCost   func(propset.Set) float64
}

// NewBuilder returns a Builder with a fresh property universe.
func NewBuilder() *Builder {
	return NewBuilderWithUniverse(propset.NewUniverse())
}

// NewBuilderSize is NewBuilder with room reserved for the given numbers
// of distinct queries and explicit prices, for callers that know them.
func NewBuilderSize(queries, costs int) *Builder {
	b := NewBuilder()
	b.queries.Grow(queries, 0)
	b.utilities = make([]float64, 0, queries)
	b.priced.Grow(costs, 0)
	b.prices = make([]float64, 0, costs)
	return b
}

// NewBuilderWithUniverse returns a Builder interning into an existing
// universe, allowing several instances to share property IDs.
func NewBuilderWithUniverse(u *propset.Universe) *Builder {
	return &Builder{universe: u}
}

// Universe exposes the builder's property universe.
func (b *Builder) Universe() *propset.Universe { return b.universe }

// NumQueries reports how many distinct non-empty queries were added so
// far.
func (b *Builder) NumQueries() int { return b.queries.Len() }

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
	i, h := b.queries.Find(s)
	if i < 0 {
		i = b.queries.Add(s, h)
		b.utilities = append(b.utilities, 0)
	}
	b.utilities[i] += utility
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
	if i, h := b.priced.Find(s); i < 0 {
		b.priced.Add(s, h)
		b.prices = append(b.prices, cost)
	} else {
		b.prices[i] = cost
	}
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
// The instance shares no mutable state with b: later calls on b leave it
// as it is.
func (b *Builder) Instance(budget float64) (*Instance, error) {
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("model: invalid budget %v", budget)
	}
	if b.queries.Len() == 0 {
		return nil, errors.New("model: instance has no queries")
	}
	in := &Instance{universe: b.universe, budget: budget}
	in.queries = make([]Query, 0, b.queries.Len())
	for i, u := range b.utilities {
		s := b.queries.Set(i)
		if u < 0 || math.IsNaN(u) {
			return nil, fmt.Errorf("model: invalid utility %v for query %v", u, s)
		}
		in.queries = append(in.queries, Query{Props: s, Utility: u})
		if s.Len() > in.maxLen {
			in.maxLen = s.Len()
		}
	}
	if in.maxLen > 30 {
		panic(fmt.Sprintf("propset: refusing to enumerate 2^%d subsets", in.maxLen))
	}
	// Enumerate CL = ∪_q 2^q \ ∅, dropping infinite-cost classifiers,
	// and fill each query's subset table, visiting each query's masks in
	// ascending order. A subset is built in scratch and looked up by
	// content, which allocates nothing; seen copies a subset met for the
	// first time and numbers it, +Inf ones included, and cost[n] is the
	// price of the subset numbered n. The subset tables hold these
	// numbers until the sort below turns them into classifier indices.
	total := 0
	for _, q := range in.queries {
		total += 1<<q.Props.Len() - 1
	}
	in.subsets = make([]int32, 0, total)
	in.subsetOff = make([]int, 1, len(in.queries)+1)
	// seen holds at least one subset per query, and an explicit price
	// usually names a distinct member of CL, which sizes it; an instance
	// priced less completely grows it.
	hint := min(total, max(len(in.queries), b.priced.Len()))
	var seen propset.Index
	seen.Grow(hint, 0)
	var (
		cost = make([]float64, 0, hint)
		// contained[j] records that some query contains priced set j.
		contained = make([]bool, b.priced.Len())
		sub       = make(propset.Set, 0, in.maxLen)
	)
	for _, q := range in.queries {
		for m := uint32(1); m < 1<<len(q.Props); m++ {
			sub = sub[:0]
			for i, id := range q.Props {
				if m>>i&1 == 1 {
					sub = append(sub, id)
				}
			}
			n, h := seen.Find(sub)
			if n < 0 {
				n = seen.Add(sub, h)
				c := 1.0
				if j, _ := b.priced.Find(sub); j >= 0 {
					c = b.prices[j]
					contained[j] = true
				} else if b.defCost != nil {
					c = b.defCost(seen.Set(n))
				}
				cost = append(cost, c)
			}
			in.subsets = append(in.subsets, int32(n))
		}
		in.subsetOff = append(in.subsetOff, len(in.subsets))
	}
	// enum lists the numbers of the subsets that join CL, in the order
	// first met; clIDs counts their IDs.
	enum := make([]int32, 0, len(cost))
	clIDs := 0
	for n, c := range cost {
		if math.IsInf(c, 1) {
			continue
		}
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("model: invalid (negative or NaN) cost for classifier %v", seen.Set(n))
		}
		enum = append(enum, int32(n))
		clIDs += seen.Set(n).Len()
	}
	// Deterministic order: by length, then lexicographic key. Each
	// member of enum sorts as one integer: the length in the top bits,
	// then the leading IDs in fixed-width fields, then its position in
	// enum. rank maps a subset's number to its classifier index, −1
	// when it is +Inf.
	idxBits := bits.Len(uint(len(enum)))
	lenBits := bits.Len(uint(in.maxLen))
	idBits := max(bits.Len(uint(b.universe.Size())), 1)
	fields := max((64-idxBits-lenBits)/idBits, 0)
	packed := make([]uint64, len(enum))
	for p, n := range enum {
		s := seen.Set(int(n))
		v := uint64(len(s))<<(64-lenBits) | uint64(p)
		for j, id := range s[:min(len(s), fields)] {
			v |= uint64(id) << (64 - lenBits - idBits*(j+1))
		}
		packed[p] = v
	}
	order := sortPacked(packed, idxBits, func(i, j int32) int {
		return compareSets(seen.Set(int(enum[i])), seen.Set(int(enum[j])))
	})
	// The instance's index copies the classifiers in sorted order, so
	// that it numbers each by its index and the classifiers share its
	// copies, then the sets priced explicitly that no query contains:
	// Cost answers with those prices, except +Inf, which an unknown set
	// gets anyway. seen, and the +Inf subsets with it, is dropped.
	var outside []int // by priced number
	outsideIDs := 0
	for j, c := range contained {
		if !c && !math.IsInf(b.prices[j], 1) {
			outside = append(outside, j)
			outsideIDs += b.priced.Set(j).Len()
		}
	}
	in.index.Grow(len(order)+len(outside), clIDs+outsideIDs)
	rank := make([]int32, len(cost))
	for n := range rank {
		rank[n] = -1
	}
	in.classifiers = make([]Classifier, len(order))
	for i, p := range order {
		n := enum[p]
		rank[n] = int32(i)
		s := seen.Set(int(n))
		_, h := in.index.Find(s)
		in.index.Add(s, h)
		in.classifiers[i] = Classifier{Props: in.index.Set(i), Cost: cost[n]}
	}
	for _, j := range outside {
		s := b.priced.Set(j)
		_, h := in.index.Find(s)
		in.index.Add(s, h)
		in.outside = append(in.outside, b.prices[j])
	}
	for i, n := range in.subsets {
		in.subsets[i] = rank[n]
	}
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
