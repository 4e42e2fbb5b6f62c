package model

import "slices"

// sortSmall sorts a row's few ranks by insertion.
func sortSmall(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// sortPacked sorts packed, whose values each hold a sort key above an
// item index in the low idxBits, and returns the item indices in that
// order. Items whose keys tie, because a key could not hold all that
// orders them, are then put in order by tie.
func sortPacked(packed []uint64, idxBits int, tie func(a, b int32) int) []int32 {
	n := len(packed)
	bucketSort(packed)
	order := make([]int32, n)
	for i, v := range packed {
		order[i] = int32(v & (1<<idxBits - 1))
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && packed[j]>>idxBits == packed[i]>>idxBits {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], tie)
		}
		i = j
	}
	return order
}

// bucketSort sorts v ascending: one counting pass distributes the
// values by their top bucketBits bits, and each bucket, small when the
// top bits spread the values, is then sorted on its own.
func bucketSort(v []uint64) {
	const bucketBits = 12
	end := make([]int, 1<<bucketBits+1)
	for _, x := range v {
		end[x>>(64-bucketBits)+1]++
	}
	for b := 1; b < len(end); b++ {
		end[b] += end[b-1]
	}
	out := make([]uint64, len(v))
	for _, x := range v {
		b := x >> (64 - bucketBits)
		out[end[b]] = x
		end[b]++
	}
	start := 0
	for _, e := range end[:1<<bucketBits] {
		if e-start > 1 {
			slices.Sort(out[start:e])
		}
		start = e
	}
	copy(v, out)
}
