package propset

import (
	"math/rand"
	"testing"
)

// indexSets draws sets of lengths 0–30 over IDs above 2^16, each sorted
// and duplicate-free, with many that are prefixes of others and many
// repeats, so that lookups both hit and miss.
func indexSets(rng *rand.Rand, n int) []Set {
	var out []Set
	for len(out) < n {
		switch {
		case len(out) > 0 && rng.Intn(3) == 0:
			s := out[rng.Intn(len(out))]
			out = append(out, s[:rng.Intn(len(s)+1)].Clone()) // a prefix, or a repeat
		default:
			ids := make([]ID, rng.Intn(31))
			for i := range ids {
				ids[i] = ID(1<<16 + rng.Intn(1<<10))
				if rng.Intn(8) == 0 {
					ids[i] = ID(rng.Uint32())
				}
			}
			out = append(out, New(ids...))
		}
	}
	return out
}

// testIndexMatchesMap requires an Index to number sets exactly as a map
// keyed by Set.Key does, through growth from the zero value and from a
// Grow, and to keep copies its callers cannot disturb.
func testIndexMatchesMap(t *testing.T, sets int) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var x Index
		if trial%2 == 1 {
			x.Grow(rng.Intn(sets), rng.Intn(4*sets))
		}
		want := make(map[string]int)
		var added []Set
		for _, s := range indexSets(rng, sets) {
			n, h := x.Find(s)
			w, ok := want[s.Key()]
			if !ok {
				w = -1
			}
			if n != w {
				t.Fatalf("trial %d: Find(%v) = %d, map %d", trial, s, n, w)
			}
			if n < 0 {
				scratch := s.Clone()
				n = x.Add(scratch, h)
				clear(scratch) // Add copied it
				want[s.Key()] = n
				added = append(added, s)
			}
			if !x.Set(n).Equal(s) {
				t.Fatalf("trial %d: Set(%d) = %v, want %v", trial, n, x.Set(n), s)
			}
		}
		if x.Len() != len(added) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, x.Len(), len(added))
		}
		for n, s := range added {
			if got := x.Set(n); !got.Equal(s) || cap(got) != len(got) {
				t.Fatalf("trial %d: Set(%d) = %v with cap %d, want %v capped", trial, n, got, cap(got), s)
			}
			if i, _ := x.Find(s); i != n {
				t.Fatalf("trial %d: Find(%v) = %d after all adds, want %d", trial, s, i, n)
			}
		}
	}
}

func TestIndexMatchesMap(t *testing.T) { testIndexMatchesMap(t, 2000) }

// With every set hashing alike, each lookup walks one probe chain that
// holds every set, so probing, tag matching and growth are checked when
// every key collides.
func TestIndexMatchesMapColliding(t *testing.T) {
	collide = true
	defer func() { collide = false }()
	testIndexMatchesMap(t, 300)
}

// The zero Index finds nothing, and an empty set is a set like any
// other.
func TestIndexEmpty(t *testing.T) {
	var x Index
	if n, _ := x.Find(nil); n != -1 || x.Len() != 0 {
		t.Fatalf("zero Index: Find = %d, Len = %d", n, x.Len())
	}
	n, h := x.Find(Set{})
	if got := x.Add(Set{}, h); got != 0 || n != -1 {
		t.Fatalf("Add(empty) = %d after Find %d", got, n)
	}
	if i, _ := x.Find(nil); i != 0 || x.Set(0).Len() != 0 {
		t.Fatalf("Find(nil) = %d, Set(0) = %v", i, x.Set(0))
	}
	if i, _ := x.Find(New(0)); i != -1 {
		t.Fatalf("Find({0}) = %d, want -1", i)
	}
}

// Find must not allocate: an instance answers Cost and ClassifierIndex
// through it on every call.
func TestIndexFindAllocs(t *testing.T) {
	var x Index
	sets := indexSets(rand.New(rand.NewSource(1)), 500)
	for _, s := range sets {
		if n, h := x.Find(s); n < 0 {
			x.Add(s, h)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		x.Find(sets[i%len(sets)])
		i++
	}); allocs != 0 {
		t.Fatalf("Find allocates %v per call", allocs)
	}
}
