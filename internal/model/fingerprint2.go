package model

import "repro/internal/propset"

// fingerprint2Version tags the canonical encoding hashed by Fingerprint2.
// Bump it whenever the encoding changes so old sibling-index entries
// cannot be mistaken for current ones.
const fingerprint2Version = "bccfp2/1"

// Fingerprint2 returns the second-level "near-miss" fingerprint: a stable
// canonical hash over the query *structure* alone. Unlike Fingerprint it
// ignores the budget B, the query utilities U, and the classifier costs C,
// so two instances that pose the same set of query conjunctions — however
// their utilities, costs, or budget differ — share a Fingerprint2.
//
// That makes it unsound as a result-cache key but exactly right as a
// sibling index: a cache entry with the same Fingerprint2 solved the same
// combinatorial structure, and its plan is a high-quality warm seed for
// the present instance after budget-feasibility repair (internal/incr).
//
// Canonicalization mirrors Fingerprint: each query renders as its
// length-prefixed, lexicographically sorted property names, and the rows
// are sorted before hashing, so interning order and insertion order are
// invisible. Duplicate conjunctions cannot occur (the builder merges
// them into one query), so the row multiset is a set. The hashed stream
// is the version tag, then the "Q" section of Fingerprint without its
// values.
func (in *Instance) Fingerprint2() string {
	c := in.canon()
	w := newHashWriter()
	w.str(fingerprint2Version)
	q := c.rows(len(in.queries), func(i int) propset.Set { return in.queries[i].Props })
	w.rows(c, "Q", q, nil)
	return w.sum()
}
