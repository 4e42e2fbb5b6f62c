package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/incr"
	"repro/internal/model"
	"repro/internal/propset"
)

// near reports whether a and b agree to floating-point noise.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// recompute rebuilds a plan with model.NewSolution and checks that its
// utility and cost match the reported ones and fit the budget.
func recompute(in *model.Instance, plan [][]string, costs []float64, utility, cost float64) error {
	sol := model.NewSolution(in)
	u := in.Universe()
	for i, names := range plan {
		ids := make([]propset.ID, 0, len(names))
		for _, n := range names {
			id, ok := u.Lookup(n)
			if !ok {
				return fmt.Errorf("plan names unknown property %q", n)
			}
			ids = append(ids, id)
		}
		set := propset.New(ids...)
		if !sol.Add(set) {
			return fmt.Errorf("plan repeats classifier %v", names)
		}
		if costs != nil && !near(costs[i], in.Cost(set)) {
			return fmt.Errorf("classifier %v reported at cost %v, instance prices it %v", names, costs[i], in.Cost(set))
		}
	}
	if !near(sol.Utility(), utility) {
		return fmt.Errorf("reported utility %v, plan recomputes to %v", utility, sol.Utility())
	}
	if !near(sol.Cost(), cost) {
		return fmt.Errorf("reported cost %v, plan recomputes to %v", cost, sol.Cost())
	}
	if sol.Cost() > in.Budget()+1e-9 {
		return fmt.Errorf("plan cost %v exceeds budget %v", sol.Cost(), in.Budget())
	}
	return nil
}

// ig1Utility is the IG1 baseline's utility on in.
func ig1Utility(in *model.Instance) float64 {
	d, _ := algo.Lookup("ig1")
	out, err := d.Run(context.Background(), in, algo.Params{})
	if err != nil {
		return 0
	}
	return out.Utility
}

// verifyCold checks one cold solve: complete status, within budget, and
// a plan that recomputes to the reported utility and cost.
func verifyCold(in *model.Instance, r *coldResult) error {
	if r.err != nil {
		return r.err
	}
	if r.out.Status != guard.Complete {
		return fmt.Errorf("status %v, want complete", r.out.Status)
	}
	if r.out.Solution == nil {
		return fmt.Errorf("no solution")
	}
	u := in.Universe()
	var plan [][]string
	for _, c := range r.out.Solution.Classifiers() {
		names := make([]string, c.Props.Len())
		for i, id := range c.Props {
			names[i] = u.Name(id)
		}
		plan = append(plan, names)
	}
	return recompute(in, plan, nil, r.out.Utility, r.out.Cost)
}

// servedRequest is one distinct serving request decoded for checking.
type servedRequest struct {
	in    *model.Instance
	floor float64 // incr.Floor, serve-drift only
	ig1   float64
}

func decodeRequest(body []byte, drift bool) (*servedRequest, error) {
	var req api.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	in, err := dataset.FromFormat(req.Instance)
	if err != nil {
		return nil, err
	}
	r := &servedRequest{in: in, ig1: ig1Utility(in)}
	if drift {
		r.floor = incr.Floor(in)
	}
	return r, nil
}

// verifyServed checks one gateway answer: complete status, the
// request's budget, a plan that recomputes to the reported utility and
// cost within budget, on serve-hot the same answer set-up got, and on
// serve-drift a utility no lower than incr.Floor.
func verifyServed(r *servedRequest, raw, want []byte, drift bool) (*api.SolveResponse, error) {
	var resp api.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	if resp.Status != guard.Complete.String() {
		return &resp, fmt.Errorf("status %q, want complete", resp.Status)
	}
	if !near(resp.Budget, r.in.Budget()) {
		return &resp, fmt.Errorf("answer budget %v, request budget %v", resp.Budget, r.in.Budget())
	}
	plan := make([][]string, len(resp.Classifiers))
	costs := make([]float64, len(resp.Classifiers))
	for i, c := range resp.Classifiers {
		plan[i], costs[i] = c.Props, c.Cost
	}
	if err := recompute(r.in, plan, costs, resp.Utility, resp.Cost); err != nil {
		return &resp, err
	}
	if want != nil {
		var w api.SolveResponse
		if err := json.Unmarshal(want, &w); err != nil {
			return &resp, err
		}
		a, _ := json.Marshal(resp.Classifiers)
		b, _ := json.Marshal(w.Classifiers)
		if !bytes.Equal(a, b) || resp.Utility != w.Utility || resp.Cost != w.Cost {
			return &resp, fmt.Errorf("answer differs from the set-up answer (utility %v vs %v)", resp.Utility, w.Utility)
		}
	}
	if drift && resp.Utility < r.floor-1e-9 {
		return &resp, fmt.Errorf("utility %v under the IG1 floor %v", resp.Utility, r.floor)
	}
	return &resp, nil
}
