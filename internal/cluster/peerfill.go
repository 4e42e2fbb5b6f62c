package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"time"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/model"
)

// Fleet peer fill (DESIGN.md §17): when a backend joins a running
// cluster, rendezvous hashing remaps a slice of every other member's
// fingerprints onto it — and its solution cache is cold for all of
// them. Instead of re-solving each remapped instance from scratch, the
// gateway fetches the previous owner's cached plan through the
// cache-entry export (GET /v1/cache/entry) and attaches it to the
// request as a warm seed. The new owner repairs the plan against the
// instance and solves warm, held to the IG1 quality floor like every
// other warm path — so peer fill can only buy latency, never cost
// answer quality.
//
// The "previous owner" is the next backend in rendezvous order after
// the new primary: exactly the member the fingerprint mapped to before
// the join (the cluster already computes it as the failover
// secondary).

// ingested is what routing derived from a /v1/solve body: the decoded
// request and its instance, budget override applied. Both are nil when
// the route came without decoding, as for a byte-identical repeat.
// digest is set only for such a repeat of a body without no_cache: it
// is the body's SHA-256, which the owner may be asked to answer by
// before the body itself is sent (Cluster.solveRouted).
type ingested struct {
	req    *api.SolveRequest
	in     *model.Instance
	digest *[sha256.Size]byte
}

// maybePeerFill returns body re-encoded with a WarmPlan attached, and
// true, when a peer fill applies and the donor had a usable plan. Fill
// applies when the primary joined within the configured window, the
// request carries no warm seed of its own, the cache is in play, and
// the algorithm can consume warm starts. got is reused when routing
// already decoded the body; otherwise the body is decoded only once the
// primary is inside its window. Failures are misses, never errors: the
// solve proceeds cold exactly as it would have without peer fill.
func (c *Cluster) maybePeerFill(ctx context.Context, body []byte, got ingested, fp string, primary, donor *backend) ([]byte, bool) {
	if c.cfg.PeerFillWindow < 0 || donor == nil {
		return nil, false
	}
	joined := primary.joinedAtNS.Load()
	if joined == 0 || time.Since(time.Unix(0, joined)) > c.cfg.PeerFillWindow {
		return nil, false
	}
	if got.req == nil {
		got = ingested{req: new(api.SolveRequest)}
		if api.DecodeBody(body, got.req) != nil {
			return nil, false
		}
	}
	req := *got.req // a copy: the warm plan is attached to it alone
	if len(req.WarmPlan) > 0 || req.NoCache {
		return nil, false
	}
	algoName := req.Algo
	if algoName == "" {
		algoName = "abcc"
	}
	if d, ok := algo.Lookup(algoName); !ok || !d.WarmStart {
		return nil, false
	}

	fctx, cancel := context.WithTimeout(ctx, c.cfg.PeerFillTimeout)
	defer cancel()
	opts := &client.CallOpts{BaseURL: donor.url}
	entry, err := c.cl.CacheEntryOpts(fctx, api.CacheKey(fp, algoName, req.Seed, req.Target), opts)
	if !usablePlan(entry, err) {
		// No exact answer on the donor; any near-miss sibling (same
		// queries, different budget/utilities) still seeds well. Only
		// this lookup reads the near-miss hash, so it is computed here.
		in, ferr := got.in, error(nil)
		if in == nil {
			in, ferr = dataset.FromFormat(req.Instance)
		}
		if ferr == nil {
			entry, err = c.cl.CacheSiblingOpts(fctx, in.Fingerprint2(), algoName, opts)
		}
	}
	if !usablePlan(entry, err) {
		c.peerFillMisses.Add(1)
		return nil, false
	}
	warm := make([][]string, len(entry.Response.Classifiers))
	for i, pc := range entry.Response.Classifiers {
		warm[i] = pc.Props
	}
	req.WarmPlan = warm
	filled, err := json.Marshal(&req)
	if err != nil {
		c.peerFillMisses.Add(1)
		return nil, false
	}
	c.peerFills.Add(1)
	return filled, true
}

func usablePlan(entry *api.CacheEntryResponse, err error) bool {
	return err == nil && entry != nil && entry.Response != nil && len(entry.Response.Classifiers) > 0
}
