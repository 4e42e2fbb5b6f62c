package qk

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
