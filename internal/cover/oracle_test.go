package cover

import (
	"math"

	"repro/internal/model"
	"repro/internal/propset"
)

// oracle is the string-keyed coverage tracker the index-native Tracker
// replaced, kept as the reference the property tests and FuzzTracker
// compare against. It keys selections by propset.Key, keeps residuals
// as property sets and runs MinCoverCost's DP over the residual's own
// compressed masks. Its one departure from the original is the
// contract for sets outside CL: Add reports false and changes nothing.
type oracle struct {
	in       *model.Instance
	selected map[string]bool
	cost     float64
	residual []propset.Set
	covered  []bool
	utility  float64
	relq     map[string][]int
	coverCt  int
}

// newOracle returns an empty oracle (nothing selected) for the instance.
func newOracle(in *model.Instance) *oracle {
	t := &oracle{
		in:       in,
		selected: make(map[string]bool),
		residual: make([]propset.Set, in.NumQueries()),
		covered:  make([]bool, in.NumQueries()),
		relq:     make(map[string][]int),
	}
	for qi, q := range in.Queries() {
		t.residual[qi] = q.Props
		q.Props.Subsets(func(sub propset.Set) {
			k := sub.Key()
			t.relq[k] = append(t.relq[k], qi)
		})
	}
	return t
}

// Cost returns the total cost of the selected classifiers.
func (t *oracle) Cost() float64 { return t.cost }

// Utility returns the total utility of covered queries.
func (t *oracle) Utility() float64 { return t.utility }

// CoveredCount returns the number of covered queries.
func (t *oracle) CoveredCount() int { return t.coverCt }

// Has reports whether the classifier is selected.
func (t *oracle) Has(c propset.Set) bool { return t.selected[c.Key()] }

// Covered reports whether query qi (index into Instance().Queries()) is
// covered.
func (t *oracle) Covered(qi int) bool { return t.covered[qi] }

// Residual returns the not-yet-testable part of query qi.
func (t *oracle) Residual(qi int) propset.Set { return t.residual[qi] }

// Add selects a classifier at the instance's cost, updating all state. It
// reports whether the classifier was newly selected.
func (t *oracle) Add(c propset.Set) bool {
	k := c.Key()
	if _, inCL := t.in.ClassifierIndex(c); !inCL || t.selected[k] {
		return false
	}
	t.selected[k] = true
	t.cost += t.in.Cost(c)
	for _, qi := range t.relq[k] {
		if t.covered[qi] {
			continue
		}
		t.residual[qi] = t.residual[qi].Minus(c)
		if t.residual[qi].Empty() {
			t.covered[qi] = true
			t.coverCt++
			t.utility += t.in.Queries()[qi].Utility
		}
	}
	return true
}

// Remove deselects a classifier, recomputing the residuals of the queries
// it is relevant to (each in O(2^l)). It reports whether the classifier
// was selected.
func (t *oracle) Remove(c propset.Set) bool {
	k := c.Key()
	if !t.selected[k] {
		return false
	}
	delete(t.selected, k)
	t.cost -= t.in.Cost(c)
	for _, qi := range t.relq[k] {
		q := t.in.Queries()[qi]
		var acc propset.Set
		q.Props.Subsets(func(sub propset.Set) {
			if t.selected[sub.Key()] {
				acc = acc.Union(sub)
			}
		})
		res := q.Props.Minus(acc)
		wasCovered := t.covered[qi]
		t.residual[qi] = res
		t.covered[qi] = res.Empty()
		if wasCovered && !t.covered[qi] {
			t.coverCt--
			t.utility -= q.Utility
		}
	}
	return true
}

// Clone returns an independent copy.
func (t *oracle) Clone() *oracle {
	c := &oracle{
		in:       t.in,
		selected: make(map[string]bool, len(t.selected)),
		cost:     t.cost,
		residual: append([]propset.Set(nil), t.residual...),
		covered:  append([]bool(nil), t.covered...),
		utility:  t.utility,
		relq:     t.relq, // shared, read-only after New
		coverCt:  t.coverCt,
	}
	for k := range t.selected {
		c.selected[k] = true
	}
	return c
}

// CopyFrom overwrites t's state with o's (both must track the same
// instance).
func (t *oracle) CopyFrom(o *oracle) {
	t.selected = make(map[string]bool, len(o.selected))
	for k := range o.selected {
		t.selected[k] = true
	}
	t.cost = o.cost
	t.residual = append(t.residual[:0], o.residual...)
	t.covered = append(t.covered[:0], o.covered...)
	t.utility = o.utility
	t.coverCt = o.coverCt
}

// Reset replaces the selection with exactly the given classifiers.
func (t *oracle) Reset(classifiers []propset.Set) {
	t.selected = make(map[string]bool)
	t.cost = 0
	t.utility = 0
	t.coverCt = 0
	for qi, q := range t.in.Queries() {
		t.residual[qi] = q.Props
		t.covered[qi] = false
	}
	for _, c := range classifiers {
		t.Add(c)
	}
}

// MinCoverCost computes, by subset dynamic programming, the minimum
// additional cost of covering query qi given the current selection,
// restricted to allowed classifier keys (nil = all). It returns the cost
// and the classifier sets achieving it (+Inf and nil when impossible).
func (t *oracle) MinCoverCost(qi int, allowed map[string]bool) (float64, []propset.Set) {
	q := t.in.Queries()[qi].Props
	res := t.residual[qi]
	if res.Empty() {
		return 0, nil
	}
	pos := make(map[propset.ID]uint, res.Len())
	for i, p := range res {
		pos[p] = uint(i)
	}
	full := (1 << uint(res.Len())) - 1

	type cand struct {
		c    propset.Set
		cost float64
		mask int
	}
	var cands []cand
	q.Subsets(func(sub propset.Set) {
		k := sub.Key()
		if t.selected[k] {
			return
		}
		if allowed != nil && !allowed[k] {
			return
		}
		cost := t.in.Cost(sub)
		if math.IsInf(cost, 1) {
			return
		}
		mask := 0
		for _, p := range sub {
			if b, ok := pos[p]; ok {
				mask |= 1 << b
			}
		}
		if mask == 0 {
			return
		}
		cands = append(cands, cand{c: sub.Clone(), cost: cost, mask: mask})
	})

	const inf = math.MaxFloat64
	dp := make([]float64, full+1)
	parent := make([]int, full+1)
	prev := make([]int, full+1)
	for m := 1; m <= full; m++ {
		dp[m] = inf
		parent[m] = -1
	}
	for m := 0; m <= full; m++ {
		if dp[m] == inf {
			continue
		}
		for ci, cd := range cands {
			nm := m | cd.mask
			if nm == m {
				continue
			}
			if c := dp[m] + cd.cost; c < dp[nm] {
				dp[nm] = c
				parent[nm] = ci
				prev[nm] = m
			}
		}
	}
	if dp[full] == inf {
		return math.Inf(1), nil
	}
	var sets []propset.Set
	for m := full; m != 0 && parent[m] >= 0; m = prev[m] {
		sets = append(sets, cands[parent[m]].c)
	}
	return dp[full], sets
}
