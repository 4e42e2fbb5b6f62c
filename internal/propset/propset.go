// Package propset provides the property universe and property-set
// representation shared by every other package in the repository.
//
// A property is an atomic filtering condition appearing in a search query
// ("wooden", "table", "running"). Properties are interned into dense
// integer identifiers by a Universe, and both queries and classifiers are
// represented as a Set: an immutable, canonically sorted, duplicate-free
// slice of property identifiers. Sets of the small cardinalities that occur
// in practice (the paper's length parameter l rarely exceeds 5) are cheap to
// copy, compare, hash and unite in this representation.
package propset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// ID identifies a property within a Universe. IDs are dense: the first
// interned property receives ID 0, the next ID 1, and so on.
type ID uint32

// Set is a canonically sorted, duplicate-free collection of property IDs.
// The zero value is the empty set. Sets are treated as immutable: none of
// the methods mutate the receiver, and callers must not modify a Set after
// sharing it.
type Set []ID

// New builds a Set from the given ids, sorting and de-duplicating them.
func New(ids ...ID) Set {
	if len(ids) == 0 {
		return nil
	}
	s := make(Set, len(ids))
	copy(s, ids)
	return canonicalize(s)
}

// canonicalize sorts s, which must not be empty, and drops repeated
// IDs, in place.
func canonicalize(s Set) Set {
	slices.Sort(s)
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[r-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// Len reports the number of properties in the set (the paper's "length" of
// a query or classifier).
func (s Set) Len() int { return len(s) }

// Empty reports whether the set has no properties.
func (s Set) Empty() bool { return len(s) == 0 }

// Contains reports whether id is a member of the set.
func (s Set) Contains(id ID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s[mid] < id:
			lo = mid + 1
		case s[mid] > id:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same properties.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every property of s is also in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Union returns the set of properties appearing in s or t.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns the set of properties appearing in both s and t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns the set of properties in s but not in t.
func (s Set) Minus(t Set) Set {
	var out Set
	j := 0
	for i := 0; i < len(s); i++ {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j < len(t) && t[j] == s[i] {
			continue
		}
		out = append(out, s[i])
	}
	return out
}

// Intersects reports whether s and t share at least one property.
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Key returns a canonical map key for the set. Two sets have the same key
// iff they are Equal. The encoding is compact (4 bytes per property) and
// not intended to be human readable; use String for display.
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	var buf [32]byte
	key := buf[:0]
	for _, id := range s {
		key = append(key, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return string(key)
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Subsets calls fn for every non-empty subset of s, in ascending order of
// the bit mask that picks it (bit i selects s[i]), so the k-th call
// receives the subset of mask k. It panics if s has more than 30
// properties; queries in this problem domain are tiny, so the
// exponential enumeration is intentional.
func (s Set) Subsets(fn func(Set)) {
	if len(s) > 30 {
		panic(fmt.Sprintf("propset: refusing to enumerate 2^%d subsets", len(s)))
	}
	for m := uint32(1); m < 1<<len(s); m++ {
		fn(s.Pick(m))
	}
}

// Pick returns the subset of s that bit mask m picks: bit i selects s[i].
func (s Set) Pick(m uint32) Set {
	if m == 0 {
		return nil
	}
	out := make(Set, 0, bits.OnesCount32(m))
	for i, id := range s {
		if m>>i&1 == 1 {
			out = append(out, id)
		}
	}
	return out
}

// String renders the set as its ID list, e.g. "{0 3 7}". For named output
// use Universe.Format.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

// Universe interns property names into dense IDs. The zero value is ready
// to use. Universe is not safe for concurrent mutation; build it up front
// and share it read-only afterwards.
type Universe struct {
	byName map[string]ID
	names  []string
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{byName: make(map[string]ID)}
}

// Intern returns the ID of the named property, assigning a fresh ID on
// first use.
func (u *Universe) Intern(name string) ID {
	if u.byName == nil {
		u.byName = make(map[string]ID)
	}
	if id, ok := u.byName[name]; ok {
		return id
	}
	id := ID(len(u.names))
	u.byName[name] = id
	u.names = append(u.names, name)
	return id
}

// Lookup returns the ID of the named property and whether it exists.
func (u *Universe) Lookup(name string) (ID, bool) {
	id, ok := u.byName[name]
	return id, ok
}

// Name returns the name of the property with the given ID. It panics if id
// was never interned.
func (u *Universe) Name(id ID) string { return u.names[id] }

// Size reports the number of interned properties (the paper's n = |P|).
func (u *Universe) Size() int { return len(u.names) }

// SetOf interns all names and returns the resulting Set.
func (u *Universe) SetOf(names ...string) Set {
	if len(names) == 0 {
		return nil
	}
	ids := make(Set, len(names))
	for i, name := range names {
		ids[i] = u.Intern(name)
	}
	return canonicalize(ids)
}

// Format renders a set using property names, e.g. "{table wooden}".
func (u *Universe) Format(s Set) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		if int(id) < len(u.names) {
			b.WriteString(u.names[id])
		} else {
			fmt.Fprintf(&b, "#%d", id)
		}
	}
	b.WriteByte('}')
	return b.String()
}
