package propset

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// Index numbers distinct Sets by content: the first set added is number
// 0, the next new one number 1, and so on. It keeps its own copy of each
// set's IDs back to back in one array, and finds a set through an
// open-addressing table with linear probing over a hash of the IDs; a
// probe compares the stored IDs, so a lookup builds no key string and
// allocates nothing. The zero value is an empty Index ready to use.
//
// An Index is not safe for concurrent mutation. Once built, Find and
// Set may be called from several goroutines at once.
type Index struct {
	ids []ID
	off []uint32 // set n is ids[off[n]:off[n+1]]; empty until the first Add
	// slots holds 0 for an empty slot, else the top 32 bits of the set's
	// hash above its number plus one. Its length is a power of two, at
	// least twice the number of sets.
	slots []uint64
}

const tagMask = uint64(0xFFFFFFFF) << 32

// seeds key the hash. They are drawn once per process, as Go seeds its
// own maps: the sets come from clients, and a hash a client could
// compute would let a crafted request put every set on one probe chain,
// making each lookup linear in the table.
var seeds = func() (s [3]uint64) {
	for i := range s {
		s[i] = maphash.String(maphash.MakeSeed(), "propset.Index")
	}
	return s
}()

// collide makes every set hash alike. Tests set it to exercise probing
// and growth when every key collides.
var collide = false

// hash mixes the IDs two at a time into a 64-bit state through full
// 128-bit products, folding the high half onto the low, in the manner of
// wyhash; both factors of every product carry a seed.
func hash(s Set) uint64 {
	if collide {
		return 0
	}
	h := seeds[0] ^ uint64(len(s))
	i := 0
	for ; i+1 < len(s); i += 2 {
		h = mix(uint64(s[i])<<32|uint64(s[i+1])^seeds[1], h^seeds[2])
	}
	if i < len(s) {
		h = mix(uint64(s[i])^seeds[1], h^seeds[2])
	}
	return h
}

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Len reports how many sets x numbers.
func (x *Index) Len() int { return max(len(x.off)-1, 0) }

// Set returns x's copy of the set numbered n, capped so that appending
// to it cannot reach a neighbor. Callers must not modify it.
func (x *Index) Set(n int) Set {
	lo, hi := x.off[n], x.off[n+1]
	return x.ids[lo:hi:hi]
}

// Find returns the number of the set equal to s, or −1 when x has none,
// and s's hash, which Add takes to number a set Find missed.
func (x *Index) Find(s Set) (int, uint64) {
	h := hash(s)
	if len(x.slots) == 0 {
		return -1, h
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return -1, h
		}
		if v&tagMask == h&tagMask {
			if n := int(uint32(v)) - 1; slices.Equal(x.ids[x.off[n]:x.off[n+1]], s) {
				return n, h
			}
		}
	}
}

// Add copies s into x under the next number and returns that number. s
// must be missing from x, and h must be the hash Find returned for it.
func (x *Index) Add(s Set, h uint64) int {
	n := x.Len()
	if 2*(n+1) > len(x.slots) {
		x.rehash(n + 1)
	}
	if len(x.off) == 0 {
		x.off = append(x.off, 0)
	}
	x.ids = append(x.ids, s...)
	x.off = append(x.off, uint32(len(x.ids)))
	x.place(h, n)
	return n
}

// Grow makes room for sets more sets holding ids more IDs in all, so
// that adding them neither reallocates nor rehashes.
func (x *Index) Grow(sets, ids int) {
	x.ids = slices.Grow(x.ids, ids)
	x.off = slices.Grow(x.off, sets+1)
	if n := x.Len() + sets; 2*n > len(x.slots) {
		x.rehash(n)
	}
}

// rehash replaces the slots with a table for n sets at half load at
// most, placing the sets x numbers again.
func (x *Index) rehash(n int) {
	x.slots = make([]uint64, max(8, 1<<bits.Len(uint(2*n-1))))
	for i := range x.Len() {
		x.place(hash(x.Set(i)), i)
	}
}

// place puts number n, whose set hashes to h, in the first empty slot
// of h's probe sequence.
func (x *Index) place(h uint64, n int) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = h&tagMask | uint64(n+1)
}
