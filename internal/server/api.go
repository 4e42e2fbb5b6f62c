package server

import (
	"context"
	"time"

	bcc "repro"
	"repro/internal/algo"
	"repro/internal/api"
)

// The wire types live in internal/api so internal/client can share them
// without importing the server (which imports the root façade, which
// re-exports the client). The aliases keep this package's historical
// names working for embedders and tests.
type (
	// SolveRequest is the body of POST /v1/solve.
	SolveRequest = api.SolveRequest
	// PlanClassifier is one selected classifier in a response plan.
	PlanClassifier = api.PlanClassifier
	// SolveResponse is the body of a successful solve.
	SolveResponse = api.SolveResponse
	// BatchRequest is the body of POST /v1/solve/batch.
	BatchRequest = api.BatchRequest
	// BatchItem is one element of a batch response.
	BatchItem = api.BatchItem
	// BatchResponse is the body of a /v1/solve/batch answer.
	BatchResponse = api.BatchResponse
	// Error is an API failure: HTTP status code plus JSON error body.
	Error = api.Error
)

func errorf(code int, format string, args ...any) *Error {
	return api.Errorf(code, format, args...)
}

// runSolve executes the requested solver through the registry
// (internal/algo) under ctx and prepares the full response (plan always
// included; solveOne strips it per request). It runs on a pool worker
// or a job worker. warm, when non-nil, seeds the anytime solvers with a
// previous incumbent so a resumed job never reports less than its last
// checkpoint; the one-shot algos ignore it (they finish in a single
// slice anyway). warmSource records the seed's provenance on the
// response (api.WarmSource*; empty for cold and checkpoint-resumed
// runs). A warm run the registry answered with the IG1 plan counts as
// a floor fallback. prepareSolve already validated the algo name, so
// the registry lookup here cannot miss. fp and fp2 are the instance's
// Fingerprint and Fingerprint2.
func (s *Server) runSolve(ctx context.Context, in *bcc.Instance, algoName string, req *SolveRequest, fp, fp2 string, warm []bcc.PropSet, warmSource string) *SolveResponse {
	start := time.Now()
	resp := &SolveResponse{
		Fingerprint: fp,
		// The near-miss hash rides on every response (and thus into the
		// cache and its snapshots), powering the sibling warm-start index.
		Fingerprint2: fp2,
		Algo:         algoName,
		Budget:       in.Budget(),
		Queries:      in.NumQueries(),
		WarmSource:   warmSource,
	}
	d, _ := algo.Lookup(algoName)
	out, err := d.Run(ctx, in, algo.Params{
		Seed:   req.Seed,
		Target: req.Target,
		Warm:   warm,
	})
	resp.Utility, resp.Cost, resp.Covered = out.Utility, out.Cost, out.Covered
	resp.Status = out.Status.String()
	if d.NeedsTarget {
		resp.Target = req.Target
	}
	resp.Achieved = out.Achieved
	resp.Ratio = out.Ratio
	if out.Floored {
		s.incrFloorFallbacks.Add(1)
	}
	switch {
	case err != nil:
		// A hard input rejection from a Run (none of the servable algos
		// produce one today, but a registered family may): surface it
		// like a contained solver failure rather than dropping it.
		resp.Status = bcc.Recovered.String()
		resp.SolverError = err.Error()
	case out.Err != nil:
		resp.SolverError = out.Err.Error()
	}
	if out.Solution != nil {
		u := in.Universe()
		for _, c := range out.Solution.Classifiers() {
			props := make([]string, c.Props.Len())
			for i, id := range c.Props {
				props[i] = u.Name(id)
			}
			resp.Classifiers = append(resp.Classifiers, PlanClassifier{Props: props, Cost: c.Cost})
		}
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp
}
