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
	index     map[string]int // query key -> index into order and utilities
	order     []propset.Set  // query insertion order, deduplicated
	utilities []float64
	costs     map[string]float64
	defCost   func(propset.Set) float64
	key       []byte       // scratch for index lookups
	sets      []propset.ID // backs the sets in order
}

// NewBuilder returns a Builder with a fresh property universe.
func NewBuilder() *Builder {
	return NewBuilderWithUniverse(propset.NewUniverse())
}

// NewBuilderSize is NewBuilder with room reserved for the given numbers
// of distinct queries and explicit prices, for callers that know them.
func NewBuilderSize(queries, costs int) *Builder {
	return &Builder{
		universe:  propset.NewUniverse(),
		index:     make(map[string]int, queries),
		order:     make([]propset.Set, 0, queries),
		utilities: make([]float64, 0, queries),
		costs:     make(map[string]float64, costs),
	}
}

// NewBuilderWithUniverse returns a Builder interning into an existing
// universe, allowing several instances to share property IDs.
func NewBuilderWithUniverse(u *propset.Universe) *Builder {
	return &Builder{
		universe: u,
		index:    make(map[string]int),
		costs:    make(map[string]float64),
	}
}

// Universe exposes the builder's property universe.
func (b *Builder) Universe() *propset.Universe { return b.universe }

// NumQueries reports how many distinct non-empty queries were added so
// far.
func (b *Builder) NumQueries() int { return len(b.order) }

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
	b.key = s.AppendKey(b.key[:0])
	i, seen := b.index[string(b.key)]
	if !seen {
		i = len(b.order)
		b.index[string(b.key)] = i
		b.order = append(b.order, carve(&b.sets, s))
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
	for i, s := range b.order {
		u := b.utilities[i]
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
	// and fill each query's subset table with enumeration positions,
	// visiting each query's masks in ascending order. A subset is built
	// in scratch and looked up by its key bytes, which allocates
	// nothing; only a subset seen for the first time gets a key string
	// and, when it joins CL, a Set of its own.
	total := 0
	for _, q := range in.queries {
		total += 1<<q.Props.Len() - 1
	}
	in.subsets = make([]int32, 0, total)
	in.subsetOff = make([]int, 1, len(in.queries)+1)
	// pos maps key -> enumeration position, -1 when +Inf; keys[p] is
	// position p's key. CL has at least one set per query, and an
	// explicit price usually names a member, which sizes them.
	hint := min(total, len(in.queries)+len(b.costs))
	pos := make(map[string]int32, hint)
	var (
		enum  = make([]Classifier, 0, hint)
		keys  = make([]string, 0, hint)
		key   []byte
		sub   = make(propset.Set, 0, in.maxLen)
		arena []propset.ID // backs the Sets of new classifiers
	)
	newSet := func(q propset.Set, m uint32) propset.Set {
		if m == 1<<len(q)-1 {
			return q // the query itself: sets are immutable, so share it
		}
		return carve(&arena, sub)
	}
	for _, q := range in.queries {
		for m := uint32(1); m < 1<<len(q.Props); m++ {
			sub = sub[:0]
			for i, id := range q.Props {
				if m>>i&1 == 1 {
					sub = append(sub, id)
				}
			}
			key = sub.AppendKey(key[:0])
			p, ok := pos[string(key)]
			if !ok {
				p = -1
				var set propset.Set
				cost, priced := b.costs[string(key)]
				if !priced {
					if b.defCost != nil {
						set = newSet(q.Props, m)
						cost = b.defCost(set)
					} else {
						cost = 1
					}
				}
				if !math.IsInf(cost, 1) {
					if cost < 0 || math.IsNaN(cost) {
						// Report via sentinel; surfaced after enumeration.
						cost = math.NaN()
					}
					if set == nil {
						set = newSet(q.Props, m)
					}
					p = int32(len(enum))
					enum = append(enum, Classifier{Props: set, Cost: cost})
					keys = append(keys, string(key))
				}
				if p < 0 {
					pos[string(key)] = p
				} else {
					pos[keys[p]] = p
				}
			}
			in.subsets = append(in.subsets, p)
		}
		in.subsetOff = append(in.subsetOff, len(in.subsets))
	}
	for _, c := range enum {
		if math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("model: invalid (negative or NaN) cost for classifier %v", c.Props)
		}
	}
	// Deterministic order: by length, then lexicographic key. Each
	// position sorts as one integer: the length in the top bits, then
	// the leading IDs in fixed-width fields, then the position itself.
	// rank maps an enumeration position to its sorted index.
	idxBits := bits.Len(uint(len(enum)))
	lenBits := bits.Len(uint(in.maxLen))
	idBits := max(bits.Len(uint(b.universe.Size())), 1)
	fields := max((64-idxBits-lenBits)/idBits, 0)
	packed := make([]uint64, len(enum))
	for p, c := range enum {
		v := uint64(len(c.Props))<<(64-lenBits) | uint64(p)
		for j, id := range c.Props[:min(len(c.Props), fields)] {
			v |= uint64(id) << (64 - lenBits - idBits*(j+1))
		}
		packed[p] = v
	}
	order := sortPacked(packed, idxBits, func(i, j int32) int {
		return compareSets(enum[i].Props, enum[j].Props)
	})
	rank := make([]int32, len(order))
	in.classifiers = make([]Classifier, len(order))
	in.byKey = make(map[string]int, len(order))
	for i, p := range order {
		rank[p] = int32(i)
		in.classifiers[i] = enum[p]
		in.byKey[keys[p]] = i
	}
	for i, p := range in.subsets {
		if p >= 0 {
			in.subsets[i] = rank[p]
		}
	}
	return in, nil
}

// carve copies s into the chunked backing array *arena and returns the
// copy, capped so that appending to it cannot reach a neighbor.
func carve(arena *[]propset.ID, s propset.Set) propset.Set {
	if len(*arena)+len(s) > cap(*arena) {
		*arena = make([]propset.ID, 0, max(1024, len(s)))
	}
	start := len(*arena)
	*arena = append(*arena, s...)
	return (*arena)[start:len(*arena):len(*arena)]
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
