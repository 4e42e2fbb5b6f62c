package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/propset"
)

// quickstartInstance is the README's running example, built with the
// given insertion order for queries, costs, and (implicitly) property
// interning.
func quickstartInstance(reordered bool) *Instance {
	b := NewBuilder()
	if !reordered {
		b.AddQuery(8, "wooden", "table")
		b.AddQuery(5, "running", "shoes")
		b.SetCost(4, "wooden")
		b.SetCost(2, "table")
		b.SetCost(3, "wooden", "table")
		b.SetCost(6, "running", "shoes")
	} else {
		// Same problem: different query order, different property order
		// inside each query (so the universe interns IDs differently),
		// different cost declaration order.
		b.AddQuery(5, "shoes", "running")
		b.AddQuery(8, "table", "wooden")
		b.SetCost(6, "shoes", "running")
		b.SetCost(3, "table", "wooden")
		b.SetCost(2, "table")
		b.SetCost(4, "wooden")
	}
	return b.MustInstance(9)
}

// Golden values pin the canonical encoding (version bccfp/1). If either
// assertion fails without a deliberate encoding change, cache keys have
// silently diverged between binary versions — a correctness bug for any
// deployment with a shared or persisted cache. On a deliberate change,
// bump fingerprintVersion and regenerate.
func TestFingerprintGolden(t *testing.T) {
	if got, want := quickstartInstance(false).Fingerprint(),
		"709f37d3adfd5185612acad795b0f56b9b0611f9e2f27e1a9a2107e77fb37fee"; got != want {
		t.Errorf("quickstart fingerprint = %s, want %s", got, want)
	}
	b := NewBuilder()
	b.AddQuery(1, "a")
	if got, want := b.MustInstance(1).Fingerprint(),
		"49bb0dd651b7369af64736b8c4f38a97d705cfad78d1daa48c11037dd26c61a9"; got != want {
		t.Errorf("singleton fingerprint = %s, want %s", got, want)
	}
}

func TestFingerprintStableAcrossReordering(t *testing.T) {
	a, b := quickstartInstance(false), quickstartInstance(true)
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Errorf("reordered construction changed the fingerprint:\n  %s\n  %s", fa, fb)
	}
}

func TestFingerprintShape(t *testing.T) {
	fp := quickstartInstance(false).Fingerprint()
	if len(fp) != 64 || strings.ToLower(fp) != fp {
		t.Errorf("fingerprint %q is not lowercase hex sha256", fp)
	}
}

// Any change to a utility, a cost, or the budget must change the hash.
func TestFingerprintSensitivity(t *testing.T) {
	base := quickstartInstance(false).Fingerprint()

	variants := map[string]func(*Builder){
		"utility changed": func(b *Builder) {
			b.AddQuery(9, "wooden", "table") // 8 → 9
			b.AddQuery(5, "running", "shoes")
		},
		"extra query": func(b *Builder) {
			b.AddQuery(8, "wooden", "table")
			b.AddQuery(5, "running", "shoes")
			b.AddQuery(1, "table")
		},
	}
	seen := map[string]string{base: "base"}
	for name, addQueries := range variants {
		b := NewBuilder()
		addQueries(b)
		b.SetCost(4, "wooden")
		b.SetCost(2, "table")
		b.SetCost(3, "wooden", "table")
		b.SetCost(6, "running", "shoes")
		fp := b.MustInstance(9).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}

	mk := func(mutate func(*Builder)) string {
		b := NewBuilder()
		b.AddQuery(8, "wooden", "table")
		b.AddQuery(5, "running", "shoes")
		b.SetCost(4, "wooden")
		b.SetCost(2, "table")
		b.SetCost(3, "wooden", "table")
		b.SetCost(6, "running", "shoes")
		if mutate != nil {
			mutate(b)
		}
		return b.MustInstance(9).Fingerprint()
	}
	if fp := mk(func(b *Builder) { b.SetCost(5, "wooden") }); fp == base {
		t.Error("cost change did not change the fingerprint")
	}
	if fp := quickstartInstance(false).WithBudget(10).Fingerprint(); fp == base {
		t.Error("budget change did not change the fingerprint")
	}
	if fp := mk(nil); fp != base {
		t.Error("identical rebuild produced a different fingerprint")
	}
}

// WithBudget shares the underlying state; fingerprints of the original
// and the copy must differ only through the budget.
func TestFingerprintWithBudgetIsolated(t *testing.T) {
	in := quickstartInstance(false)
	fp9 := in.Fingerprint()
	in10 := in.WithBudget(10)
	if in10.Fingerprint() == fp9 {
		t.Error("budget copy shares the fingerprint")
	}
	if in.Fingerprint() != fp9 {
		t.Error("fingerprinting the budget copy mutated the original")
	}
}

// trickyName draws a property name from pieces that make canonical
// order hard: names sharing prefixes, differing only in length, sorting
// differently by bytes and by length, and multibyte UTF-8.
func trickyName(rng *rand.Rand) string {
	pieces := []string{"a", "b", "ab", "é", "e", "日本", "語", "Z", "zz", "ä"}
	var sb strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// randomTrickyBuilder fills a builder with up to 40 queries of length
// 1–6 over tricky names, explicit zero, +Inf and positive costs, and
// either uniform or length-priced default costs. With shared set, the
// universe already holds names no query uses.
func randomTrickyBuilder(rng *rand.Rand, shared bool) *Builder {
	b := NewBuilder()
	if shared {
		u := propset.NewUniverse()
		for i := rng.Intn(20); i > 0; i-- {
			u.Intern(trickyName(rng))
		}
		b = NewBuilderWithUniverse(u)
	}
	pool := make([]string, 1+rng.Intn(24))
	for i := range pool {
		pool[i] = trickyName(rng)
	}
	var queries [][]string
	for n := 1 + rng.Intn(40); n > 0; n-- {
		props := make([]string, 1+rng.Intn(6))
		for i := range props {
			props[i] = pool[rng.Intn(len(pool))]
		}
		queries = append(queries, props)
		b.AddQuery(float64(rng.Intn(50)), props...)
	}
	for n := rng.Intn(30); n > 0; n-- {
		q := queries[rng.Intn(len(queries))]
		var sub []string
		for _, p := range q {
			if rng.Intn(2) == 0 {
				sub = append(sub, p)
			}
		}
		if len(sub) == 0 {
			continue
		}
		cost := float64(rng.Intn(20)) / 4
		switch rng.Intn(6) {
		case 0:
			cost = 0
		case 1:
			cost = math.Inf(1)
		}
		b.SetCost(cost, sub...)
	}
	if rng.Intn(2) == 0 {
		b.SetDefaultCost(func(s propset.Set) float64 { return 0.5 + float64(s.Len()) })
	}
	return b
}

// The rank-sorted fingerprints hash exactly the bytes the string-sorted
// reference implementations hash.
func TestFingerprintsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		b := randomTrickyBuilder(rng, trial%3 == 0)
		in, err := b.Instance(float64(rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := in.Fingerprint(), referenceFingerprint(in); got != want {
			t.Fatalf("trial %d: Fingerprint = %s, reference %s", trial, got, want)
		}
		if got, want := in.Fingerprint2(), referenceFingerprint2(in); got != want {
			t.Fatalf("trial %d: Fingerprint2 = %s, reference %s", trial, got, want)
		}
	}
}

// Fingerprints, one ranking and one query sort for both hashes, returns
// what the two references hash.
func TestFingerprintsOnePassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		b := randomTrickyBuilder(rng, trial%3 == 0)
		in, err := b.Instance(float64(rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		fp, fp2 := in.Fingerprints()
		if want := referenceFingerprint(in); fp != want {
			t.Fatalf("trial %d: Fingerprints' bccfp/1 = %s, reference %s", trial, fp, want)
		}
		if want := referenceFingerprint2(in); fp2 != want {
			t.Fatalf("trial %d: Fingerprints' bccfp2/1 = %s, reference %s", trial, fp2, want)
		}
	}
}
