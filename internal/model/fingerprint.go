package model

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/propset"
)

// fingerprintVersion tags the canonical encoding hashed by Fingerprint.
// Bump it whenever the encoding changes so old cache entries cannot be
// mistaken for current ones.
const fingerprintVersion = "bccfp/1"

// Fingerprint returns a stable canonical hash of the problem content
// ⟨Q, U, C, B⟩: the query set with utilities, the enumerated candidate
// classifier set CL with effective costs, and the budget.
//
// The hash is independent of representation accidents — the order queries
// were added, the order property names were interned (and hence the dense
// ID assignment), and the order costs were declared — because every
// property set is canonicalized to its sorted property *names* and both
// the query and classifier sections are sorted by that canonical form
// before hashing. Two instances receive the same fingerprint iff they
// describe the same problem, so the fingerprint is a sound cache key for
// solver results: classifiers excluded via an infinite cost are absent
// from CL and therefore (correctly) do not contribute.
//
// Floats are hashed by their exact IEEE-754 bit patterns: any change to a
// utility, a cost, or the budget — however small — changes the hash.
//
// The hashed stream is: the version tag and the budget, then for each
// section ("Q" with utilities, "C" with costs) its tag, its row count
// and its rows in ascending byte order of their canonical keys, each
// key followed by the row's value. Strings are written as an 8-byte
// big-endian length and their bytes, words big-endian. A row's key is
// its property names in byte order, each length-prefixed the same way.
func (in *Instance) Fingerprint() string {
	c := in.canon()
	return in.fingerprint(c, in.queryRows(c))
}

// Fingerprints returns Fingerprint and Fingerprint2 of the instance
// from one ranking of its names and one sort of its query rows, which
// both hash.
func (in *Instance) Fingerprints() (fp, fp2 string) {
	c := in.canon()
	q := in.queryRows(c)
	return in.fingerprint(c, q), fingerprint2(c, q)
}

// fingerprint hashes Fingerprint's stream, given the instance's ranking
// and its query rows.
func (in *Instance) fingerprint(c *canonical, q canonRows) string {
	w := newHashWriter()
	w.str(fingerprintVersion)
	w.float(in.budget)
	w.rows(c, "Q", q, func(i int) float64 { return in.queries[i].Utility })
	cl := c.rows(len(in.classifiers), func(i int) propset.Set { return in.classifiers[i].Props })
	w.rows(c, "C", cl, func(i int) float64 { return in.classifiers[i].Cost })
	return w.sum()
}

// queryRows is the instance's query section in canonical form and order.
func (in *Instance) queryRows(c *canonical) canonRows {
	return c.rows(len(in.queries), func(i int) propset.Set { return in.queries[i].Props })
}

// canonical ranks the properties an instance uses so that canonical
// keys compare as small integers instead of as allocated strings.
//
// A canonical key holds, per name, an 8-byte big-endian length and the
// name's bytes. Comparing two keys byte by byte therefore compares their
// name sequences name by name, each pair of names first by length and
// then by bytes, a key that is a prefix of the other sorting first. With
// names numbered in that (length, bytes) order, a row compares as its
// sequence of name numbers, which is what rows sort by.
type canonical struct {
	// names lists the used property names in (length, bytes) order.
	names []string
	// rank holds, per property ID in use, the name's rank in plain byte
	// order in the high 32 bits and its index into names in the low 32.
	// Sorting a row's ranks puts its names in byte order, the order a
	// key lists them in.
	rank []uint64
}

// canon ranks every property the instance's queries use; classifiers
// are subsets of queries, so that covers them too.
func (in *Instance) canon() *canonical {
	used := make([]bool, in.universe.Size())
	var ids []propset.ID
	for _, q := range in.queries {
		for _, id := range q.Props {
			if !used[id] {
				used[id] = true
				ids = append(ids, id)
			}
		}
	}
	name := in.universe.Name
	// Most names differ within their first eight bytes, so they sort by
	// those as one integer and compare whole only on a tie.
	head := make([]uint64, len(used))
	for _, id := range ids {
		head[id] = first8(name(id))
	}
	slices.SortFunc(ids, func(a, b propset.ID) int {
		if head[a] != head[b] {
			return cmp.Compare(head[a], head[b])
		}
		return strings.Compare(name(a), name(b))
	})
	// byLen sorts the byte order by length, keeping byte order within a
	// length: each entry is a name's length above its byte rank.
	byLen := make([]uint64, len(ids))
	for i, id := range ids {
		byLen[i] = uint64(len(name(id)))<<32 | uint64(i)
	}
	slices.Sort(byLen)
	rank := make([]uint64, len(used))
	names := make([]string, len(ids))
	for i, v := range byLen {
		b := uint32(v)
		id := ids[b]
		rank[id] = uint64(b)<<32 | uint64(i)
		names[i] = name(id)
	}
	return &canonical{names: names, rank: rank}
}

// first8 packs s's first eight bytes big-endian, zero-padded: two
// names whose packings differ compare as their packings do.
func first8(s string) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v <<= 8
		if i < len(s) {
			v |= uint64(s[i])
		}
	}
	return v
}

// canonRows is a section's rows in canonical form and order.
type canonRows struct {
	keys  []uint32 // row i's names, as indices into canonical.names, in byte order
	off   []int32  // row i is keys[off[i]:off[i+1]]
	order []int32  // row indices in ascending canonical-key order
}

// rows renders the n property sets set(0..n-1) as canonical rows and
// sorts them.
//
// Each row sorts as one integer: its leading names' indices plus one in
// fixed-width fields from the top bit down, zero past the row's end,
// then the row's index in the low bits. Comparing two such integers
// compares those names in order, a shorter row first. Rows whose
// leading names all agree, because one of them has more names than
// fields, are then put in order by their whole keys.
func (c *canonical) rows(n int, set func(i int) propset.Set) canonRows {
	r := canonRows{off: make([]int32, n+1)}
	total := 0
	for i := 0; i < n; i++ {
		total += len(set(i))
	}
	r.keys = make([]uint32, 0, total)
	width := bits.Len(uint(len(c.names)))
	idxBits := bits.Len(uint(n))
	fields := (64 - idxBits) / max(width, 1)
	packed := make([]uint64, n)
	row := make([]uint64, 0, 8)
	for i := 0; i < n; i++ {
		row = row[:0]
		for _, id := range set(i) {
			row = append(row, c.rank[id])
		}
		sortSmall(row)
		v := uint64(i)
		for j, k := range row {
			r.keys = append(r.keys, uint32(k))
			if j < fields {
				v |= (k&math.MaxUint32 + 1) << (64 - width*(j+1))
			}
		}
		r.off[i+1] = int32(len(r.keys))
		packed[i] = v
	}
	r.order = sortPacked(packed, idxBits, func(a, b int32) int {
		return slices.Compare(r.keys[r.off[a]:r.off[a+1]], r.keys[r.off[b]:r.off[b+1]])
	})
	return r
}

// hashWriter streams the fingerprint encoding into SHA-256 through one
// buffer, so the many 8-byte words cost an append each, not a Write.
type hashWriter struct {
	h   hash.Hash
	buf []byte
}

func newHashWriter() *hashWriter {
	return &hashWriter{h: sha256.New(), buf: make([]byte, 0, 16<<10)}
}

// reserve makes room for n more bytes, hashing what the buffer holds
// when they would not fit.
func (w *hashWriter) reserve(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *hashWriter) uint(v uint64) {
	w.reserve(8)
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

func (w *hashWriter) float(f float64) { w.uint(math.Float64bits(f)) }

func (w *hashWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.reserve(len(s))
	w.buf = append(w.buf, s...)
}

// rows writes a section: its tag, its row count, and each row's
// canonical key as a string, followed by the row's value when val is
// non-nil.
func (w *hashWriter) rows(c *canonical, tag string, r canonRows, val func(i int) float64) {
	w.str(tag)
	w.uint(uint64(len(r.order)))
	for _, i := range r.order {
		key := r.keys[r.off[i]:r.off[i+1]]
		n := 0
		for _, k := range key {
			n += 8 + len(c.names[k])
		}
		w.reserve(n + 16)
		w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(n))
		for _, k := range key {
			name := c.names[k]
			w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(len(name)))
			w.buf = append(w.buf, name...)
		}
		if val != nil {
			w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(val(int(i))))
		}
	}
}

func (w *hashWriter) sum() string {
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}
