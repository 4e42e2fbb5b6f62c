package incr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cover"
	"repro/internal/model"
	"repro/internal/propset"
)

// referenceRepairSets is the string-keyed repair that RepairSets
// replaced: it deduplicates by Key, and rescans and rescores every
// candidate in every round. It stays here only as the oracle of the
// property test and FuzzRepairSets.
func referenceRepairSets(in *model.Instance, sets []propset.Set) []propset.Set {
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

// repairCase draws a repair input from bytes, so that the property test
// (random bytes) and FuzzRepairSets (fuzzed bytes) share one generator.
// Each byte picks one choice; a short input picks the zero choices.
type repairCase struct {
	data []byte
}

func (c *repairCase) next(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

// build returns an instance over a few properties whose prices tie
// often, are 0 or +Inf, and include sets no query contains, and a plan
// of its classifiers mixed with duplicates, sets outside CL, empty sets,
// unsorted sets and sets naming an ID the universe does not know.
func (c *repairCase) build() (*model.Instance, []propset.Set, error) {
	names := make([]string, 2+c.next(6))
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	draw := func(n int) []string {
		props := make([]string, n)
		for i := range props {
			props[i] = names[c.next(len(names))]
		}
		return props
	}
	prices := []float64{0, 1, 2, 3, 0.5, math.Inf(1)}
	b := model.NewBuilder()
	for n := 1 + c.next(12); n > 0; n-- {
		b.AddQuery(float64(c.next(4)), draw(1+c.next(4))...)
	}
	for n := c.next(16); n > 0; n-- {
		b.SetCost(prices[c.next(len(prices))], draw(1+c.next(3))...)
	}
	switch c.next(3) {
	case 1:
		b.SetDefaultCost(func(s propset.Set) float64 { return float64(s.Len()) })
	case 2:
		b.SetDefaultCost(func(s propset.Set) float64 { return prices[int(s[0])%len(prices)] })
	}
	budgets := []float64{0, 1, 2, 3, 4, 5, 6, 8, 12, 100}
	in, err := b.Instance(budgets[c.next(len(budgets))])
	if err != nil {
		return nil, nil, err
	}
	u, cls := in.Universe(), in.Classifiers()
	var plan []propset.Set
	for n := c.next(24); n > 0; n-- {
		switch c.next(6) {
		case 0, 1:
			if len(cls) > 0 {
				plan = append(plan, cls[c.next(len(cls))].Props)
			}
		case 2:
			if len(plan) > 0 {
				plan = append(plan, plan[c.next(len(plan))].Clone())
			}
		case 3:
			plan = append(plan, u.SetOf(draw(1+c.next(3))...))
		case 4:
			plan = append(plan, nil)
		case 5:
			s := u.SetOf(draw(2)...)
			if c.next(2) == 0 {
				s = append(s, propset.ID(u.Size()))
			} else if s.Len() == 2 {
				s[0], s[1] = s[1], s[0]
			}
			plan = append(plan, s)
		}
	}
	return in, plan, nil
}

// sameRepair fails unless RepairSets matches the oracle on in and plan,
// and Repair matches it on the plan's names, where an ID the universe
// does not know becomes a name it has never seen.
func sameRepair(t *testing.T, in *model.Instance, plan []propset.Set) {
	t.Helper()
	same := func(what string, got, want []propset.Set) {
		t.Helper()
		ok := (got == nil) == (want == nil) && len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].Equal(want[i])
		}
		if !ok {
			t.Fatalf("budget %v, plan %v: %s = %v, reference %v", in.Budget(), plan, what, got, want)
		}
	}
	same("RepairSets", RepairSets(in, plan), referenceRepairSets(in, plan))

	u := in.Universe()
	names := make([][]string, len(plan))
	var known []propset.Set
	for i, s := range plan {
		stale := false
		for _, id := range s {
			if int(id) < u.Size() {
				names[i] = append(names[i], u.Name(id))
			} else {
				names[i] = append(names[i], "never-seen")
				stale = true
			}
		}
		if !stale && len(s) > 0 {
			known = append(known, propset.New(s...))
		}
	}
	same("Repair", Repair(in, names), referenceRepairSets(in, known))
}

// RepairSets must return what the string-keyed loop returns, in the same
// order, at the drawn budget, after a cut and after a raise.
func TestRepairSetsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 256)
	nonEmpty := 0
	for trial := 0; trial < 3000; trial++ {
		rng.Read(data)
		c := &repairCase{data: data}
		in, plan, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		sameRepair(t, in, plan)
		sameRepair(t, in.WithBudget(in.Budget()/2), plan)
		sameRepair(t, in.WithBudget(in.Budget()*2+1), plan)
		if len(RepairSets(in, plan)) > 1 {
			nonEmpty++
		}
	}
	if nonEmpty < 300 {
		t.Fatalf("only %d of 3000 trials kept more than one set; the generator is too thin", nonEmpty)
	}
}

// Ties in score and cost must break by property IDs, as the oracle's
// keys do: a and b tie first, then c and d, and the plan lists them in
// the opposite order.
func TestRepairSetsTieOrder(t *testing.T) {
	b := model.NewBuilder()
	for _, q := range [][]string{{"a"}, {"b"}, {"c"}, {"d"}, {"a", "b"}} {
		b.AddQuery(1, q...)
	}
	in := b.MustInstance(3)
	u := in.Universe()
	plan := []propset.Set{u.SetOf("d"), u.SetOf("c"), u.SetOf("b"), u.SetOf("a")}
	got := RepairSets(in, plan)
	if len(got) != 3 || !got[0].Equal(u.SetOf("a")) || !got[1].Equal(u.SetOf("b")) || !got[2].Equal(u.SetOf("c")) {
		t.Fatalf("RepairSets = %v, want the sets of a, b and c in that order", got)
	}
	sameRepair(t, in, plan)
}

// FuzzRepairSets checks RepairSets against the string-keyed oracle on
// instances and plans drawn from the fuzzed bytes.
func FuzzRepairSets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 8, 3, 1, 2, 0, 1, 2, 1, 3, 0, 2, 5, 4, 1, 2, 3, 0, 5, 7, 20, 0, 1, 1, 2, 2, 3, 3, 4, 5})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		data := make([]byte, 96)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &repairCase{data: data}
		in, plan, err := c.build()
		if err != nil {
			t.Skip(err)
		}
		sameRepair(t, in, plan)
		sameRepair(t, in.WithBudget(in.Budget()/2), plan)
	})
}
