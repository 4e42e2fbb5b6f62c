// Package cluster is the multi-backend routing tier of the BCC solving
// service: membership over N bccserver backends, rendezvous
// (highest-random-weight) hashing on the canonical instance fingerprint
// so identical instances always land on the backend that already caches
// their solution, health-aware routing with per-backend circuit
// breakers, one failover to the second-ranked backend, and
// scatter-gather fan-out for batch solves. cmd/bccgate mounts it
// behind the same internal/api wire types the backends speak, so
// clients cannot tell a gateway from a single server.
//
// Why rendezvous hashing: the solution cache (internal/solvecache) is
// keyed by Instance.Fingerprint(), so horizontal scale only pays off
// when a repeated instance keeps hitting the backend whose cache is
// already warm. HRW gives that affinity with two properties a routing
// tier wants: ranking is deterministic from (key, backend-ID) alone —
// no coordination, any gateway replica computes the same order — and a
// membership change of one backend remaps only the ~1/N of keys that
// ranked it first, leaving every other backend's cache untouched.
package cluster

import (
	"hash/fnv"
	"io"
	"sort"
)

// keyHash folds a routing key (normally a bccfp/1 fingerprint) to the
// 64-bit value combined per backend by Rank.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// turns the weakly mixed FNV/xor combination into an effectively
// independent score per (key, backend) pair — the independence HRW's
// uniformity and minimal-movement guarantees rest on.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the HRW weight of backend id for the pre-hashed key.
func score(kh uint64, id string) uint64 {
	return mix64(keyHash(id) ^ kh)
}

// Rank orders backend IDs by descending rendezvous score for key. The
// result is deterministic in (key, set of ids) — input order never
// matters — and removing an id from the input changes nothing about the
// relative order of the others, which is exactly the minimal-movement
// property: a backend leaving re-homes only the keys that ranked it
// first. Score ties (vanishingly rare with 64-bit scores) break by ID
// so the order stays total.
func Rank(key string, ids []string) []string {
	kh := keyHash(key)
	type scored struct {
		id string
		s  uint64
	}
	ss := make([]scored, len(ids))
	for i, id := range ids {
		ss[i] = scored{id: id, s: score(kh, id)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].s != ss[j].s {
			return ss[i].s > ss[j].s
		}
		return ss[i].id < ss[j].id
	})
	out := make([]string, len(ids))
	for i, s := range ss {
		out[i] = s.id
	}
	return out
}

// Top returns the highest-ranked id for key (empty for no ids) without
// materializing the full ranking — the common single-lookup path.
func Top(key string, ids []string) string {
	if len(ids) == 0 {
		return ""
	}
	kh := keyHash(key)
	best, bestScore := "", uint64(0)
	for _, id := range ids {
		s := score(kh, id)
		if best == "" || s > bestScore || (s == bestScore && id < best) {
			best, bestScore = id, s
		}
	}
	return best
}
