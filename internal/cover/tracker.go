// Package cover provides the incremental coverage tracker shared by the
// BCC, GMC3 and ECC solvers: it maintains, for a fixed instance, the set
// of selected classifiers, the residual (not-yet-testable) part of every
// query, covered flags, total utility and total cost, all updated in time
// proportional to the classifiers' relevance lists.
//
// The tracker is index-native. A classifier is its index into the
// instance's Classifiers, and a query's residual is a bit mask over the
// query's own sorted properties (bit i stands for Props[i]); the query is
// covered when its mask is 0. The instance's per-query subset tables
// (model.Instance.SubsetTable) turn a mask into a classifier index, and
// New inverts them into per-classifier occurrence lists. The methods
// taking a propset.Set are adapters that look the classifier up once;
// a set outside CL is never selected.
package cover

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/model"
	"repro/internal/propset"
)

// Tracker is mutable coverage state over one instance. Create one with
// New; the zero value is not usable. A Tracker is not safe for concurrent
// use, not even through MinCover, which reuses scratch memory.
type Tracker struct {
	in       *model.Instance
	occ      *occurrences // shared by clones, read-only after New
	selected []bool       // by classifier index
	cost     float64
	residual []uint32 // by query: mask of the properties still untested
	utility  float64
	coverCt  int
	dp       *dpScratch // MinCover scratch; never shared between trackers
}

// occurrences lists, for every classifier, the queries containing it and
// the classifier's bit mask within each, in query order: classifier ci's
// entries are query[start[ci]:start[ci+1]] and mask[start[ci]:start[ci+1]].
// They live on the tracker, not the instance, so an instance kept in a
// cache does not carry them.
type occurrences struct {
	start []int32
	query []int
	mask  []uint32
}

// New returns an empty tracker (nothing selected) for the instance.
func New(in *model.Instance) *Tracker {
	nq, nc := in.NumQueries(), len(in.Classifiers())
	occ := &occurrences{start: make([]int32, nc+1)}
	t := &Tracker{
		in:       in,
		occ:      occ,
		selected: make([]bool, nc),
		residual: make([]uint32, nq),
	}
	for qi := range nq {
		t.residual[qi] = t.full(qi)
		for _, ci := range in.SubsetTable(qi) {
			if ci >= 0 {
				occ.start[ci+1]++
			}
		}
	}
	for ci := range nc {
		occ.start[ci+1] += occ.start[ci]
	}
	occ.query = make([]int, occ.start[nc])
	occ.mask = make([]uint32, occ.start[nc])
	next := slices.Clone(occ.start[:nc])
	for qi := range nq {
		for m, ci := range in.SubsetTable(qi) {
			if ci >= 0 {
				occ.query[next[ci]] = qi
				occ.mask[next[ci]] = uint32(m + 1)
				next[ci]++
			}
		}
	}
	return t
}

// full is query qi's all-properties mask. A subset table has one entry
// per non-empty mask, so its length is that mask.
func (t *Tracker) full(qi int) uint32 { return uint32(len(t.in.SubsetTable(qi))) }

// Instance returns the tracked instance.
func (t *Tracker) Instance() *model.Instance { return t.in }

// Cost returns the total cost of the selected classifiers.
func (t *Tracker) Cost() float64 { return t.cost }

// Utility returns the total utility of covered queries.
func (t *Tracker) Utility() float64 { return t.utility }

// CoveredCount returns the number of covered queries.
func (t *Tracker) CoveredCount() int { return t.coverCt }

// Remaining returns the unspent budget of the instance.
func (t *Tracker) Remaining() float64 { return t.in.Budget() - t.cost }

// HasIndex reports whether classifier ci is selected.
func (t *Tracker) HasIndex(ci int) bool { return t.selected[ci] }

// Has reports whether the classifier is selected.
func (t *Tracker) Has(c propset.Set) bool {
	ci, ok := t.in.ClassifierIndex(c)
	return ok && t.selected[ci]
}

// Covered reports whether query qi (index into Instance().Queries()) is
// covered.
func (t *Tracker) Covered(qi int) bool { return t.residual[qi] == 0 }

// ResidualMask returns the not-yet-testable part of query qi as a bit
// mask over the query's properties.
func (t *Tracker) ResidualMask(qi int) uint32 { return t.residual[qi] }

// Residual returns the not-yet-testable part of query qi.
func (t *Tracker) Residual(qi int) propset.Set {
	return t.in.Queries()[qi].Props.Pick(t.residual[qi])
}

// Occurrences returns the queries containing classifier ci and, aligned
// with them, the classifier's bit mask over each query's properties.
// Callers must not modify the returned slices.
func (t *Tracker) Occurrences(ci int) (queries []int, masks []uint32) {
	lo, hi := t.occ.start[ci], t.occ.start[ci+1]
	return t.occ.query[lo:hi], t.occ.mask[lo:hi]
}

// RelevantQueries returns the indices of queries containing the classifier
// (i.e. the queries whose coverage it can affect); nil for a set outside
// CL. Callers must not modify the returned slice.
func (t *Tracker) RelevantQueries(c propset.Set) []int {
	ci, ok := t.in.ClassifierIndex(c)
	if !ok {
		return nil
	}
	qs, _ := t.Occurrences(ci)
	return qs
}

// AddIndex selects classifier ci at the instance's cost, updating all
// state. It reports whether the classifier was newly selected.
func (t *Tracker) AddIndex(ci int) bool {
	if t.selected[ci] {
		return false
	}
	t.selected[ci] = true
	t.cost += t.in.Classifiers()[ci].Cost
	qs, masks := t.Occurrences(ci)
	for i, qi := range qs {
		if t.residual[qi] == 0 {
			continue
		}
		t.residual[qi] &^= masks[i]
		if t.residual[qi] == 0 {
			t.coverCt++
			t.utility += t.in.Queries()[qi].Utility
		}
	}
	return true
}

// Add selects a classifier at the instance's cost, updating all state. It
// reports whether the classifier was newly selected; a set outside CL is
// not selected.
func (t *Tracker) Add(c propset.Set) bool {
	ci, ok := t.in.ClassifierIndex(c)
	return ok && t.AddIndex(ci)
}

// RemoveIndex deselects classifier ci, recomputing the residuals of the
// queries it is relevant to (each in O(2^l)). It reports whether the
// classifier was selected.
func (t *Tracker) RemoveIndex(ci int) bool {
	if !t.selected[ci] {
		return false
	}
	t.selected[ci] = false
	t.cost -= t.in.Classifiers()[ci].Cost
	qs, _ := t.Occurrences(ci)
	for _, qi := range qs {
		var acc uint32
		for m, cj := range t.in.SubsetTable(qi) {
			if cj >= 0 && t.selected[cj] {
				acc |= uint32(m + 1)
			}
		}
		wasCovered := t.residual[qi] == 0
		t.residual[qi] = t.full(qi) &^ acc
		if wasCovered && t.residual[qi] != 0 {
			t.coverCt--
			t.utility -= t.in.Queries()[qi].Utility
		}
	}
	return true
}

// Remove deselects a classifier. It reports whether the classifier was
// selected.
func (t *Tracker) Remove(c propset.Set) bool {
	ci, ok := t.in.ClassifierIndex(c)
	return ok && t.RemoveIndex(ci)
}

// Clone returns an independent copy.
func (t *Tracker) Clone() *Tracker {
	c := *t
	c.selected = slices.Clone(t.selected)
	c.residual = slices.Clone(t.residual)
	c.dp = nil
	return &c
}

// CopyFrom overwrites t's state with o's (both must track the same
// instance).
func (t *Tracker) CopyFrom(o *Tracker) {
	copy(t.selected, o.selected)
	copy(t.residual, o.residual)
	t.cost = o.cost
	t.utility = o.utility
	t.coverCt = o.coverCt
}

// ResetIndex replaces the selection with exactly the given classifier
// indices, added in order.
func (t *Tracker) ResetIndex(classifiers []int32) {
	clear(t.selected)
	t.cost = 0
	t.utility = 0
	t.coverCt = 0
	for qi := range t.residual {
		t.residual[qi] = t.full(qi)
	}
	for _, ci := range classifiers {
		t.AddIndex(int(ci))
	}
}

// Solution materializes the tracker as a model.Solution.
func (t *Tracker) Solution() *model.Solution {
	s := model.NewSolution(t.in)
	for ci, c := range t.in.Classifiers() {
		if t.selected[ci] {
			s.Add(c.Props)
		}
	}
	return s
}

// SelectedSets returns the selected classifiers as property sets, in the
// instance's deterministic classifier order.
func (t *Tracker) SelectedSets() []propset.Set {
	var out []propset.Set
	for ci, c := range t.in.Classifiers() {
		if t.selected[ci] {
			out = append(out, c.Props)
		}
	}
	return out
}

// CoveredIndices returns the indices of all covered queries, ascending.
func (t *Tracker) CoveredIndices() []int {
	out := make([]int, 0, t.coverCt)
	for qi, r := range t.residual {
		if r == 0 {
			out = append(out, qi)
		}
	}
	return out
}

// ProgressGain is the coverage-progress surrogate for adding classifier
// ci: Σ_q U(q)·|res(q) ∩ c|/|res(q)| over the uncovered queries
// containing it. Completing a residual earns the query's full utility.
// It does not allocate.
func (t *Tracker) ProgressGain(ci int) float64 {
	queries := t.in.Queries()
	total := 0.0
	qs, masks := t.Occurrences(ci)
	for i, qi := range qs {
		res := t.residual[qi]
		if res == 0 {
			continue
		}
		hit := bits.OnesCount32(res & masks[i])
		if hit == 0 {
			continue
		}
		total += queries[qi].Utility * float64(hit) / float64(bits.OnesCount32(res))
	}
	return total
}

// dpScratch is MinCover's reusable working memory: the candidate list
// and, indexed by residual submask, the DP's best cost, the candidate
// that reached the state and the state it came from.
type dpScratch struct {
	cands []candidate
	cost  []float64
	via   []int32
	prev  []uint32
}

type candidate struct {
	ci   int32
	mask uint32 // the classifier's bits within the residual
	cost float64
}

// MinCover computes, by subset dynamic programming, the minimum
// additional cost of covering query qi given the current selection,
// restricted to the classifiers allowed marks (nil = all). It returns the
// cost and the classifier indices achieving it (+Inf and nil when
// impossible). Once the tracker's scratch has grown, the returned slice
// is its only allocation.
func (t *Tracker) MinCover(qi int, allowed []bool) (float64, []int32) {
	cost, s := t.minCover(qi, allowed)
	if s == nil || math.IsInf(cost, 1) {
		return cost, nil
	}
	n := 0
	for m := t.residual[qi]; m != 0 && s.via[m] >= 0; m = s.prev[m] {
		n++
	}
	out := make([]int32, 0, n)
	for m := t.residual[qi]; m != 0 && s.via[m] >= 0; m = s.prev[m] {
		out = append(out, s.cands[s.via[m]].ci)
	}
	return cost, out
}

// MinCoverCost is MinCover's cost alone, without allocating.
func (t *Tracker) MinCoverCost(qi int, allowed []bool) float64 {
	cost, _ := t.minCover(qi, allowed)
	return cost
}

// minCover runs MinCover's DP, leaving the back pointers in the scratch.
// Candidates are the query's subsets in ascending mask order, and the
// states are the residual's submasks in ascending order, so ties resolve
// the same way as a DP over the residual's own compressed masks.
func (t *Tracker) minCover(qi int, allowed []bool) (float64, *dpScratch) {
	r := t.residual[qi]
	if r == 0 {
		return 0, nil
	}
	if t.dp == nil {
		n := 1 << t.in.MaxQueryLength()
		t.dp = &dpScratch{cost: make([]float64, n), via: make([]int32, n), prev: make([]uint32, n)}
	}
	s := t.dp
	cls := t.in.Classifiers()
	s.cands = s.cands[:0]
	for m, ci := range t.in.SubsetTable(qi) {
		if ci < 0 || t.selected[ci] || (allowed != nil && !allowed[ci]) {
			continue
		}
		if hit := uint32(m+1) & r; hit != 0 {
			s.cands = append(s.cands, candidate{ci: ci, mask: hit, cost: cls[ci].Cost})
		}
	}

	const inf = math.MaxFloat64
	s.cost[0] = 0
	for m := (0 - r) & r; m != 0; m = (m - r) & r {
		s.cost[m] = inf
		s.via[m] = -1
	}
	for m := uint32(0); ; m = (m - r) & r {
		if s.cost[m] != inf {
			for i, cd := range s.cands {
				nm := m | cd.mask
				if nm == m {
					continue
				}
				if c := s.cost[m] + cd.cost; c < s.cost[nm] {
					s.cost[nm] = c
					s.via[nm] = int32(i)
					s.prev[nm] = m
				}
			}
		}
		if m == r {
			break
		}
	}
	if s.cost[r] == inf {
		return math.Inf(1), s
	}
	return s.cost[r], s
}
