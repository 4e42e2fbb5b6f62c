package qk

import "math"

// candidate is one entry of a greedy's heap: a node and the score it was
// pushed with.
type candidate struct {
	v     int
	score float64
}

// before reports whether a pops ahead of b in the canonical order: the
// higher score first, ties to the lower node.
func (a candidate) before(b candidate) bool {
	return a.score > b.score || (a.score == b.score && a.v < b.v)
}

// radixSort sorts c, which must be in ascending node order, by score:
// descending (the canonical order) with desc, else ascending; equal
// scores keep the lower node first. Scores must be non-negative and not
// NaN (and not -0), so that their bit patterns order as their values
// do. It is a stable LSD radix sort over those patterns' bytes: one pass
// counts every byte position, and each position all scores share is
// skipped. It uses buf (len(buf) ≥ len(c)) as its second array. A
// comparison sort would make an indirect call per comparison; this
// makes none.
func radixSort(c []candidate, desc bool, buf []candidate) {
	if len(c) < 2 {
		return
	}
	var flip uint64
	if desc {
		flip = ^uint64(0)
	}
	var count [8][256]int
	for _, e := range c {
		k := math.Float64bits(e.score) ^ flip
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	first := math.Float64bits(c[0].score) ^ flip
	src, dst := c, buf[:len(c)]
	for b := range count {
		next := &count[b]
		if next[byte(first>>(8*b))] == len(c) {
			continue
		}
		sum := 0
		for d, k := range next {
			next[d] = sum
			sum += k
		}
		for _, e := range src {
			d := byte((math.Float64bits(e.score) ^ flip) >> (8 * b))
			dst[next[d]] = e
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &c[0] {
		copy(c, src)
	}
}

// maxHeap is a binary max-heap of candidates in canonical order, shared by
// the greedy completion (greedyGrow), the HkS fill (greedyFill) and the
// copy refill (refill).
// container/heap would box every pushed and popped entry into an
// interface; this one allocates nothing once its backing slice has room.
// Because the order is total, each pop returns the best entry of the
// current multiset whatever the heap's layout, so entries that are never
// pushed cannot change the order of those that are.
type maxHeap []candidate

// init establishes the heap order over the whole slice in O(len).
func (h maxHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *maxHeap) push(c candidate) {
	*h = append(*h, c)
	h.up(len(*h) - 1)
}

func (h *maxHeap) pop() candidate {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

func (h maxHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h maxHeap) down(i int) {
	n := len(h)
	for {
		best, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].before(h[best]) {
			best = l
		}
		if r < n && h[r].before(h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
