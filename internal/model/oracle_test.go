package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/propset"
)

// The reference implementations below are the string-keyed versions of
// Builder.Instance, Fingerprint and Fingerprint2 that the index-native
// ones replaced. They allocate a key per subset and a canonical string
// per row, and stay here only as oracles for the property tests.

// reference is referenceInstance's answer: the instance, and the
// string-keyed lookups that the set index replaced.
type reference struct {
	*Instance
	costs map[string]float64 // the builder's explicit prices
	byKey map[string]int     // classifier key -> index into classifiers
}

// ClassifierIndex looks props up by its key.
func (r *reference) ClassifierIndex(props propset.Set) (int, bool) {
	i, ok := r.byKey[props.Key()]
	return i, ok
}

// Cost answers with an explicit price first, then the classifier's.
func (r *reference) Cost(props propset.Set) float64 {
	key := props.Key()
	if c, ok := r.costs[key]; ok {
		return c
	}
	if i, ok := r.byKey[key]; ok {
		return r.classifiers[i].Cost
	}
	return math.Inf(1)
}

// referenceInstance enumerates CL with an allocated Pick and Key per
// subset.
func referenceInstance(b *Builder, budget float64) (*reference, error) {
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("model: invalid budget %v", budget)
	}
	queries := make([]propset.Set, b.queries.Len())
	for i := range queries {
		queries[i] = b.queries.Set(i)
	}
	if len(queries) == 0 {
		return nil, errors.New("model: instance has no queries")
	}
	costs := make(map[string]float64, b.priced.Len())
	for j := range b.priced.Len() {
		costs[b.priced.Set(j).Key()] = b.prices[j]
	}
	in := &Instance{
		universe: b.universe,
		budget:   budget,
	}
	in.queries = make([]Query, 0, len(queries))
	for i, s := range queries {
		u := b.utilities[i]
		if u < 0 || math.IsNaN(u) {
			return nil, fmt.Errorf("model: invalid utility %v for query %v", u, s)
		}
		in.queries = append(in.queries, Query{Props: s, Utility: u})
		if s.Len() > in.maxLen {
			in.maxLen = s.Len()
		}
	}
	total := 0
	for _, q := range in.queries {
		if q.Props.Len() <= 30 {
			total += 1<<q.Props.Len() - 1
		}
	}
	in.subsets = make([]int32, 0, total)
	in.subsetOff = make([]int, 1, len(in.queries)+1)
	pos := make(map[string]int)
	for _, q := range in.queries {
		q.Props.Subsets(func(sub propset.Set) {
			k := sub.Key()
			p, ok := pos[k]
			if !ok {
				p = -1
				cost, priced := costs[k]
				if !priced {
					if b.defCost != nil {
						cost = b.defCost(sub)
					} else {
						cost = 1
					}
				}
				if !math.IsInf(cost, 1) {
					if cost < 0 || math.IsNaN(cost) {
						cost = math.NaN()
					}
					p = len(in.classifiers)
					in.classifiers = append(in.classifiers, Classifier{Props: sub, Cost: cost})
				}
				pos[k] = p
			}
			in.subsets = append(in.subsets, int32(p))
		})
		in.subsetOff = append(in.subsetOff, len(in.subsets))
	}
	for _, c := range in.classifiers {
		if math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("model: invalid (negative or NaN) cost for classifier %v", c.Props)
		}
	}
	order := make([]int, len(in.classifiers))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		return compareSets(in.classifiers[i].Props, in.classifiers[j].Props)
	})
	rank := make([]int32, len(order))
	sorted := make([]Classifier, len(order))
	for i, p := range order {
		rank[p] = int32(i)
		sorted[i] = in.classifiers[p]
	}
	in.classifiers = sorted
	for i, p := range in.subsets {
		if p >= 0 {
			in.subsets[i] = rank[p]
		}
	}
	for k, p := range pos {
		if p < 0 {
			delete(pos, k)
		} else {
			pos[k] = int(rank[p])
		}
	}
	return &reference{Instance: in, costs: costs, byKey: pos}, nil
}

// referenceCanon renders a property set as its length-prefixed,
// byte-sorted property names.
func referenceCanon(in *Instance, s propset.Set) string {
	names := make([]string, s.Len())
	for i, id := range s {
		names[i] = in.universe.Name(id)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	var n [8]byte
	for _, name := range names {
		binary.BigEndian.PutUint64(n[:], uint64(len(name)))
		buf.Write(n[:])
		buf.WriteString(name)
	}
	return buf.String()
}

// referenceFingerprint sorts allocated canonical strings.
func referenceFingerprint(in *Instance) string {
	h := sha256.New()
	var word [8]byte
	writeUint := func(v uint64) {
		binary.BigEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	writeFloat := func(f float64) { writeUint(math.Float64bits(f)) }
	writeStr := func(s string) {
		writeUint(uint64(len(s)))
		h.Write([]byte(s))
	}
	writeStr(fingerprintVersion)
	writeFloat(in.budget)
	type row struct {
		key string
		val float64
	}
	writeRows := func(tag string, rows []row) {
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		writeStr(tag)
		writeUint(uint64(len(rows)))
		for _, r := range rows {
			writeStr(r.key)
			writeFloat(r.val)
		}
	}
	queries := make([]row, len(in.queries))
	for i, q := range in.queries {
		queries[i] = row{referenceCanon(in, q.Props), q.Utility}
	}
	writeRows("Q", queries)
	classifiers := make([]row, len(in.classifiers))
	for i, c := range in.classifiers {
		classifiers[i] = row{referenceCanon(in, c.Props), c.Cost}
	}
	writeRows("C", classifiers)
	return hex.EncodeToString(h.Sum(nil))
}

// referenceFingerprint2 sorts allocated canonical strings.
func referenceFingerprint2(in *Instance) string {
	h := sha256.New()
	var word [8]byte
	writeUint := func(v uint64) {
		binary.BigEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	writeStr := func(s string) {
		writeUint(uint64(len(s)))
		h.Write([]byte(s))
	}
	writeStr(fingerprint2Version)
	rows := make([]string, len(in.queries))
	for i, q := range in.queries {
		rows[i] = referenceCanon(in, q.Props)
	}
	sort.Strings(rows)
	writeStr("Q")
	writeUint(uint64(len(rows)))
	for _, r := range rows {
		writeStr(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}
