package cover

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/propset"
)

// oracleInstance draws an instance with query lengths 1..maxLen over a
// few properties. Some pairs are priced explicitly at +Inf, 0 or a
// positive cost; the rest follow a seeded default. A set of a property
// no query uses is priced too, so the candidates include a set outside
// CL with a finite explicit cost.
func oracleInstance(rng *rand.Rand, maxLen int) (*model.Instance, []propset.Set) {
	b := model.NewBuilder()
	u := b.Universe()
	names := make([]string, maxLen+1+rng.Intn(4))
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	for q := 0; q < 1+rng.Intn(10); q++ {
		ln := 1 + rng.Intn(maxLen)
		if q == 0 {
			ln = maxLen
		}
		perm := rng.Perm(len(names))[:ln]
		ids := make([]propset.ID, ln)
		for j, p := range perm {
			ids[j] = u.Intern(names[p])
		}
		b.AddQuerySet(propset.New(ids...), float64(rng.Intn(6)))
	}
	for k := 0; k < 1+rng.Intn(6); k++ {
		price := []float64{math.Inf(1), 0, float64(1 + rng.Intn(4))}[rng.Intn(3)]
		ln := 1 + rng.Intn(2)
		perm := rng.Perm(len(names))[:ln]
		ids := make([]propset.ID, ln)
		for j, p := range perm {
			ids[j] = u.Intern(names[p])
		}
		b.SetCostSet(propset.New(ids...), price)
	}
	b.SetCost(2, "unused")
	seed := rng.Int63()
	b.SetDefaultCost(func(s propset.Set) float64 {
		h := seed
		for _, id := range s {
			h = h*37 + int64(id) + 3
		}
		return float64((h%6+6)%6) / 2
	})
	in := b.MustInstance(8)

	// Candidates: every subset of every query (in CL or priced +Inf),
	// plus the priced set outside CL.
	seen := map[string]bool{}
	var sets []propset.Set
	for _, q := range in.Queries() {
		q.Props.Subsets(func(sub propset.Set) {
			if !seen[sub.Key()] {
				seen[sub.Key()] = true
				sets = append(sets, sub.Clone())
			}
		})
	}
	sets = append(sets, u.SetOf("unused"))
	return in, sets
}

// oraclePair is one production tracker and the oracle tracking the
// same selection.
type oraclePair struct {
	t *Tracker
	o *oracle
}

// runOracleScript drives trackers and oracles through the operations
// the script encodes — Add, Remove, Reset, Clone and CopyFrom — and
// compares every pair with its oracle after each one.
func runOracleScript(tb testing.TB, in *model.Instance, sets []propset.Set, script []byte) {
	pairs := []oraclePair{{New(in), newOracle(in)}}
	check := func(step int, op string) {
		for pi, p := range pairs {
			if err := compareWithOracle(in, sets, p.t, p.o, script); err != nil {
				tb.Fatalf("step %d (%s), tracker %d: %v", step, op, pi, err)
			}
		}
	}
	check(-1, "new")
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], int(script[step+1])
		p := pairs[int(op>>3)%len(pairs)]
		var name string
		switch op % 8 {
		case 0, 1, 2:
			s := sets[arg%len(sets)]
			name = fmt.Sprintf("Add %v", s)
			if got, want := p.t.Add(s), p.o.Add(s); got != want {
				tb.Fatalf("step %d: Add(%v) = %v, oracle %v", step, s, got, want)
			}
		case 3, 4:
			s := sets[arg%len(sets)]
			name = fmt.Sprintf("Remove %v", s)
			if got, want := p.t.Remove(s), p.o.Remove(s); got != want {
				tb.Fatalf("step %d: Remove(%v) = %v, oracle %v", step, s, got, want)
			}
		case 5:
			var sel []propset.Set
			for i, s := range sets {
				if (arg>>(i%8))&1 == 1 && (i+arg)%3 == 0 {
					sel = append(sel, s)
				}
			}
			// The tracker takes the selection by index; a set outside CL
			// has none.
			var idx []int32
			for _, s := range sel {
				if ci, ok := in.ClassifierIndex(s); ok {
					idx = append(idx, int32(ci))
				}
			}
			name = fmt.Sprintf("Reset %v", sel)
			p.t.ResetIndex(idx)
			p.o.Reset(sel)
		case 6:
			name = "Clone"
			if len(pairs) < 4 {
				pairs = append(pairs, oraclePair{p.t.Clone(), p.o.Clone()})
			}
		case 7:
			// Copying a tracker onto itself is not part of the contract.
			src := pairs[arg%len(pairs)]
			name = "CopyFrom"
			if src != p {
				p.t.CopyFrom(src.t)
				p.o.CopyFrom(src.o)
			}
		}
		check(step, name)
	}
}

// compareWithOracle checks cost, utility, covered count, every residual,
// Has for every candidate, and MinCover's cost and cover for every query
// both unrestricted and under an allowed mask drawn from the script.
func compareWithOracle(in *model.Instance, sets []propset.Set, t *Tracker, o *oracle, script []byte) error {
	if t.Cost() != o.Cost() || t.Utility() != o.Utility() || t.CoveredCount() != o.CoveredCount() {
		return fmt.Errorf("cost/utility/covered %v/%v/%d, oracle %v/%v/%d",
			t.Cost(), t.Utility(), t.CoveredCount(), o.Cost(), o.Utility(), o.CoveredCount())
	}
	for _, s := range sets {
		if t.Has(s) != o.Has(s) {
			return fmt.Errorf("Has(%v) = %v, oracle %v", s, t.Has(s), o.Has(s))
		}
	}
	cls := in.Classifiers()
	allowed := make([]bool, len(cls))
	allowedKeys := map[string]bool{}
	for ci, c := range cls {
		allowed[ci] = len(script) == 0 || script[ci%len(script)]&4 == 0
		allowedKeys[c.Props.Key()] = allowed[ci]
	}
	var covered []int
	for qi := range in.Queries() {
		if o.Covered(qi) {
			covered = append(covered, qi)
		}
	}
	if got := t.CoveredIndices(); !slices.Equal(got, covered) {
		return fmt.Errorf("CoveredIndices %v, oracle %v", got, covered)
	}
	for qi, q := range in.Queries() {
		if !t.Residual(qi).Equal(o.Residual(qi)) || t.Covered(qi) != o.Covered(qi) {
			return fmt.Errorf("query %v: residual %v covered %v, oracle %v covered %v",
				q.Props, t.Residual(qi), t.Covered(qi), o.Residual(qi), o.Covered(qi))
		}
		for _, restrict := range []bool{false, true} {
			var mask []bool
			var keys map[string]bool
			if restrict {
				mask, keys = allowed, allowedKeys
			}
			cost, cover := t.MinCover(qi, mask)
			wantCost, wantCover := o.MinCoverCost(qi, keys)
			var got []propset.Set
			for _, ci := range cover {
				got = append(got, cls[ci].Props)
			}
			if cost != wantCost || !slices.EqualFunc(got, wantCover, propset.Set.Equal) {
				return fmt.Errorf("query %v restricted=%v: MinCover %v %v, oracle %v %v",
					q.Props, restrict, cost, got, wantCost, wantCover)
			}
			if c := t.MinCoverCost(qi, mask); c != cost {
				return fmt.Errorf("query %v restricted=%v: MinCoverCost %v, MinCover %v", q.Props, restrict, c, cost)
			}
		}
	}
	return nil
}

// TestTrackerMatchesOracle drives 240 random instances, query lengths 1
// to 6, through random operation scripts and compares the tracker with
// the string-keyed oracle after every step.
func TestTrackerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 240; trial++ {
		in, sets := oracleInstance(rng, 1+trial%6)
		script := make([]byte, 2*(10+rng.Intn(30)))
		rng.Read(script)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runOracleScript(t, in, sets, script) })
	}
}

// FuzzTracker is TestTrackerMatchesOracle with the instance seed, the
// maximum query length and the operation script chosen by the fuzzer.
func FuzzTracker(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 1, 0, 2, 3, 1, 6, 0, 13, 4, 7, 0, 5, 255})
	f.Add(int64(2), uint8(6), []byte{2, 9, 1, 7, 6, 0, 14, 3, 11, 5, 22, 1, 15, 0})
	f.Fuzz(func(t *testing.T, seed int64, maxLen uint8, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		in, sets := oracleInstance(rand.New(rand.NewSource(seed)), 1+int(maxLen)%6)
		runOracleScript(t, in, sets, script)
	})
}

// TestTrackerAllocs pins the index-native hot paths: AddIndex and
// RemoveIndex allocate nothing, MinCoverCost nothing, and MinCover only
// its returned slice.
func TestTrackerAllocs(t *testing.T) {
	in, _ := oracleInstance(rand.New(rand.NewSource(3)), 6)
	tr := New(in)
	n := len(in.Classifiers())
	tr.MinCoverCost(0, nil) // allocate the DP scratch once
	if a := testing.AllocsPerRun(100, func() {
		for ci := 0; ci < n; ci += 2 {
			tr.AddIndex(ci)
		}
		for ci := 0; ci < n; ci += 2 {
			tr.RemoveIndex(ci)
		}
	}); a != 0 {
		t.Errorf("AddIndex+RemoveIndex allocate %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		for qi := range in.Queries() {
			tr.MinCoverCost(qi, nil)
		}
	}); a != 0 {
		t.Errorf("MinCoverCost allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { tr.MinCover(0, nil) }); a > 1 {
		t.Errorf("MinCover allocates %v per call, want at most its returned slice", a)
	}
}
