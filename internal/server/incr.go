package server

import (
	"context"
	"net/http"
	"time"

	bcc "repro"
	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/incr"
	"repro/internal/obs"
)

// Incremental re-solve paths (DESIGN.md §17). Every solve that can be
// warm-started funnels through warmFor → runWarmSolve:
//
//   - a request-supplied WarmPlan (pipeline warm chaining, gateway peer
//     fill, bccsolve -warm-from) is repaired against this instance and
//     seeds the solver;
//   - otherwise the cache's near-miss index is consulted: an entry whose
//     bccfp2/1 tag matches (same queries, any budget/utilities/costs)
//     donates its plan;
//   - the solver registry holds the warm result to the IG1 quality
//     floor (algo.Descriptor.WarmStart): a warm solve that lands below
//     it answers with the IG1 plan, so a bad seed can never degrade
//     answer quality.

// siblingTag derives the near-miss index tag from a cached value. It is
// installed as the cache's tagger in New, and re-applied by Import, so a
// bccsnap restore rebuilds the sibling index from the persisted
// Fingerprint2 fields without any sidecar state.
func siblingTag(v any) string {
	resp, ok := v.(*SolveResponse)
	if !ok || resp == nil || resp.Fingerprint2 == "" {
		return ""
	}
	return api.SiblingTag(resp.Fingerprint2, resp.Algo)
}

// warmFor picks the warm seed for one solve: the request's own repaired
// WarmPlan first, then a near-miss cache sibling found by fp2, the
// instance's Fingerprint2. key is the request's exact cache key
// (excluded from sibling candidates). Returns a nil seed for cold solves
// and for algorithms without the WarmStart capability.
func (s *Server) warmFor(in *bcc.Instance, fp2, served string, req *SolveRequest, key string) ([]bcc.PropSet, string) {
	d, _ := algo.Lookup(served)
	if !d.WarmStart {
		return nil, ""
	}
	if len(req.WarmPlan) > 0 {
		if w := incr.Repair(in, req.WarmPlan); len(w) > 0 {
			s.incrWarmRequest.Add(1)
			return w, api.WarmSourceRequest
		}
		return nil, ""
	}
	if req.NoCache {
		return nil, ""
	}
	_, v, ok := s.cache.Sibling(api.SiblingTag(fp2, served), key)
	if !ok {
		return nil, ""
	}
	s.incrSiblingHits.Add(1)
	sib, ok := v.(*SolveResponse)
	if !ok || len(sib.Classifiers) == 0 {
		return nil, ""
	}
	plan := make([][]string, len(sib.Classifiers))
	for i, c := range sib.Classifiers {
		plan[i] = c.Props
	}
	if w := incr.Repair(in, plan); len(w) > 0 {
		s.incrWarmSibling.Add(1)
		return w, api.WarmSourceSibling
	}
	return nil, ""
}

// runWarmSolve is runSolve plus the incremental machinery: warm-seed
// selection and the warm-vs-cold latency histogram. It is the only
// solve entry of the synchronous path. It hashes the instance's
// Fingerprint2 once, for both the sibling lookup and the response.
func (s *Server) runWarmSolve(ctx context.Context, in *bcc.Instance, served string, req *SolveRequest, fp, key string) *SolveResponse {
	fp2 := in.Fingerprint2()
	warm, source := s.warmFor(in, fp2, served, req, key)
	mode := "cold"
	if warm != nil {
		mode = "warm"
	}
	t0 := time.Now()
	resp := s.runSolve(ctx, in, served, req, fp, fp2, warm, source)
	s.reg.Histogram("bcc_incr_solve_seconds",
		"Solver execution time split by warm-started vs cold runs.",
		obs.Labels{"mode": mode}, solveBuckets).Observe(time.Since(t0).Seconds())
	return resp
}

// IncrStats is the /v1/statz view of the incremental re-solve
// subsystem.
type IncrStats struct {
	// WarmRequest / WarmSibling count warm-started solves by seed
	// source (caller-supplied plan vs near-miss cache neighbor).
	WarmRequest uint64 `json:"warm_request"`
	WarmSibling uint64 `json:"warm_sibling"`
	// SiblingHits counts near-miss index lookups that found a neighbor
	// (>= WarmSibling: a found plan can still repair to nothing).
	SiblingHits uint64 `json:"sibling_hits"`
	// FloorFallbacks counts warm results under the IG1 floor that were
	// answered with the IG1 plan (algo.Outcome.Floored).
	FloorFallbacks uint64 `json:"floor_fallbacks"`
}

func (s *Server) incrStats() IncrStats {
	return IncrStats{
		WarmRequest:    s.incrWarmRequest.Load(),
		WarmSibling:    s.incrWarmSibling.Load(),
		SiblingHits:    s.incrSiblingHits.Load(),
		FloorFallbacks: s.incrFloorFallbacks.Load(),
	}
}

func (s *Server) initIncrMetrics() {
	reg := s.reg
	reg.CounterFunc("bcc_incr_warm_total", "Warm-started solves by seed source.",
		obs.Labels{"source": api.WarmSourceRequest},
		func() float64 { return float64(s.incrWarmRequest.Load()) })
	reg.CounterFunc("bcc_incr_warm_total", "Warm-started solves by seed source.",
		obs.Labels{"source": api.WarmSourceSibling},
		func() float64 { return float64(s.incrWarmSibling.Load()) })
	reg.CounterFunc("bcc_incr_sibling_hits_total", "Near-miss cache index lookups that found a neighbor entry.", nil,
		func() float64 { return float64(s.incrSiblingHits.Load()) })
	reg.CounterFunc("bcc_incr_floor_fallbacks_total", "Warm results under the IG1 quality floor, answered with the IG1 plan.", nil,
		func() float64 { return float64(s.incrFloorFallbacks.Load()) })
}

// handleCacheEntry is GET /v1/cache/entry: the cache export a peer
// backend uses for fleet warm transfer. ?key= answers an exact entry;
// ?fp2=&algo= answers any near-miss sibling. 404 when nothing matches —
// peer fill treats that as "start cold", never as an error worth
// retrying.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if key := q.Get("key"); key != "" {
		if v, ok := s.cache.Get(key); ok {
			if resp, ok := v.(*SolveResponse); ok {
				api.WriteJSON(w, http.StatusOK, api.CacheEntryResponse{Key: key, Response: resp})
				return
			}
		}
		api.WriteError(w, errorf(http.StatusNotFound, "no cache entry for key %q", key))
		return
	}
	fp2, algoName := q.Get("fp2"), q.Get("algo")
	if fp2 == "" || algoName == "" {
		api.WriteError(w, errorf(http.StatusBadRequest, "cache entry lookup needs ?key= or ?fp2=&algo="))
		return
	}
	key, v, ok := s.cache.Sibling(api.SiblingTag(fp2, algoName), "")
	if !ok {
		api.WriteError(w, errorf(http.StatusNotFound, "no cache entry tagged %s", api.SiblingTag(fp2, algoName)))
		return
	}
	resp, okResp := v.(*SolveResponse)
	if !okResp {
		api.WriteError(w, errorf(http.StatusNotFound, "no cache entry tagged %s", api.SiblingTag(fp2, algoName)))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.CacheEntryResponse{Key: key, Sibling: true, Response: resp})
}
