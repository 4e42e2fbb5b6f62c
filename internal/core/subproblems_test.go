package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/propset"
	"repro/internal/wgraph"
)

// subInstance draws an instance for the subproblem build: query lengths
// 1..maxLen with fractional utilities, so that merged edge weights depend
// on summation order, a seeded default price in thirds (some 0) and
// explicit prices at +Inf, 0 or tenths. A dense instance has up to 400
// queries over a few more properties than maxLen, so that one node has
// many 2-cover pairs and a pair recurs in many queries.
func subInstance(rng *rand.Rand, maxLen int, dense bool) *model.Instance {
	b := model.NewBuilder()
	u := b.Universe()
	names := make([]string, maxLen+1+rng.Intn(8))
	nq := 2 + rng.Intn(40)
	if dense {
		names = make([]string, maxLen+2)
		nq = 100 + rng.Intn(300)
	}
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	pick := func(ln int) propset.Set {
		ids := make([]propset.ID, ln)
		for j, p := range rng.Perm(len(names))[:ln] {
			ids[j] = u.Intern(names[p])
		}
		return propset.New(ids...)
	}
	for q := 0; q < nq; q++ {
		ln := 1 + rng.Intn(maxLen)
		if q == 0 {
			ln = maxLen
		}
		b.AddQuerySet(pick(ln), float64(rng.Intn(60))/7)
	}
	for k := rng.Intn(12); k > 0; k-- {
		price := []float64{math.Inf(1), 0, float64(rng.Intn(30)) / 10}[rng.Intn(3)]
		b.SetCostSet(pick(1+rng.Intn(min(maxLen, 3))), price)
	}
	seed := rng.Int63()
	b.SetDefaultCost(func(s propset.Set) float64 {
		h := seed
		for _, id := range s {
			h = h*41 + int64(id) + 5
		}
		return float64((h%9+9)%9) / 3
	})
	return b.MustInstance(float64(rng.Intn(30)) / 2)
}

// sameSubproblems fails unless got and want have the same items (value
// and weight bits, payload), item and node classifiers, anchor, node
// costs, edges in order (weight bits) and adjacency order.
func sameSubproblems(t *testing.T, got, want *subproblems) {
	t.Helper()
	if len(got.items) != len(want.items) {
		t.Fatalf("%d items, want %d", len(got.items), len(want.items))
	}
	for i, it := range want.items {
		g := got.items[i]
		if math.Float64bits(g.Value) != math.Float64bits(it.Value) ||
			math.Float64bits(g.Weight) != math.Float64bits(it.Weight) || g.Payload != it.Payload {
			t.Fatalf("item %d = %+v, want %+v", i, g, it)
		}
	}
	if !slices.Equal(got.itemCls, want.itemCls) || !slices.Equal(got.nodeCls, want.nodeCls) || got.vStar != want.vStar {
		t.Fatalf("itemCls %v nodeCls %v vStar %d, want %v %v %d",
			got.itemCls, got.nodeCls, got.vStar, want.itemCls, want.nodeCls, want.vStar)
	}
	gg, wg := got.graph, want.graph
	if gg.NumNodes() != wg.NumNodes() {
		t.Fatalf("%d nodes, want %d", gg.NumNodes(), wg.NumNodes())
	}
	for v := 0; v < wg.NumNodes(); v++ {
		if math.Float64bits(gg.Cost(v)) != math.Float64bits(wg.Cost(v)) {
			t.Fatalf("node %d costs %v, want %v", v, gg.Cost(v), wg.Cost(v))
		}
	}
	bits := func(es []wgraph.Edge) [][3]uint64 {
		out := make([][3]uint64, len(es))
		for i, e := range es {
			out[i] = [3]uint64{uint64(e.U), uint64(e.V), math.Float64bits(e.W)}
		}
		return out
	}
	if !slices.Equal(bits(gg.Edges()), bits(wg.Edges())) {
		t.Fatalf("edges %v, want %v", gg.Edges(), wg.Edges())
	}
	for v := 0; v < wg.NumNodes(); v++ {
		var ga, wa []int
		gg.Neighbors(v, func(u int, _ float64, eid int) { ga = append(ga, u, eid) })
		wg.Neighbors(v, func(u int, _ float64, eid int) { wa = append(wa, u, eid) })
		if !slices.Equal(ga, wa) {
			t.Fatalf("node %d neighbours %v, want %v", v, ga, wa)
		}
	}
}

// TestBuildSubproblemsMatchesOracle compares the one-pass build with the
// one it replaced on sparse and dense instances, fresh and partly filled
// trackers, nil and partial allowed masks, and finite and infinite cost
// caps. Every input is built
// twice, between builds on instances of other CL sizes, so that state
// left in the pooled scratch would show.
func TestBuildSubproblemsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var prev *cover.Tracker
	for trial := 0; trial < 360; trial++ {
		in := subInstance(rng, 1+trial%6, trial%8 == 7)
		tr := cover.New(in)
		ncl := len(in.Classifiers())
		if ncl > 0 {
			for k := rng.Intn(4); k > 0; k-- {
				tr.AddIndex(rng.Intn(ncl))
			}
		}
		var allowed []bool
		if rng.Intn(2) == 0 {
			allowed = make([]bool, ncl)
			for ci := range allowed {
				allowed[ci] = rng.Intn(4) != 0
			}
		}
		maxCost := math.Inf(1)
		if rng.Intn(2) == 0 {
			maxCost = float64(rng.Intn(8)) / 3
		}
		want := oracleBuildSubproblems(nil, tr, allowed, maxCost)
		for rep := 0; rep < 2; rep++ {
			if prev != nil {
				buildSubproblems(nil, prev, nil, math.Inf(1))
			}
			sameSubproblems(t, buildSubproblems(nil, tr, allowed, maxCost), want)
		}
		prev = tr
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestBuildSubproblemsAllocs pins the pooled build: once warm, a build on
// Private(501, 1000) allocates only the subproblems it returns.
func TestBuildSubproblemsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tr := cover.New(dataset.Private(501, 1000))
	buildSubproblems(nil, tr, nil, math.Inf(1))
	if n := testing.AllocsPerRun(20, func() { buildSubproblems(nil, tr, nil, math.Inf(1)) }); n > 16 {
		t.Errorf("%v allocations per build, want ≤ 16", n)
	}
}
