package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/algo"
)

// TestNewSolverFamiliesServed runs the submodular greedy end to end
// through the HTTP path: it must answer 200 with a complete,
// budget-feasible plan.
func TestNewSolverFamiliesServed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, name := range []string{"submod"} {
		resp, out := solve(t, ts, SolveRequest{Instance: quickstartFormat(8), Algo: name, IncludePlan: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", name, resp.StatusCode)
		}
		if out.Algo != name {
			t.Errorf("%s: response algo = %q", name, out.Algo)
		}
		if out.Status != "complete" {
			t.Errorf("%s: status = %q, want complete", name, out.Status)
		}
		if out.Utility <= 0 {
			t.Errorf("%s: utility = %v, want > 0", name, out.Utility)
		}
		if out.Cost > out.Budget+1e-9 {
			t.Errorf("%s: cost %v exceeds budget %v", name, out.Cost, out.Budget)
		}
		if len(out.Classifiers) == 0 {
			t.Errorf("%s: include_plan returned no classifiers", name)
		}
		if c := planCost(out); c != out.Cost {
			t.Errorf("%s: plan cost %v != reported cost %v", name, c, out.Cost)
		}
	}
}

// TestUnknownAlgo400ListsSupported pins the registry-driven error shape:
// a single 400 whose message enumerates every servable name, so a
// client typo is self-correcting. evo is a retired solver's name.
func TestUnknownAlgo400ListsSupported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, name := range []string{"anneal", "evo"} {
		resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: quickstartFormat(8), Algo: name})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s: error body %s: %v", name, data, err)
		}
		if !strings.Contains(e.Error, `"`+name+`"`) || !strings.Contains(e.Error, "supported:") {
			t.Errorf("error %q does not name the bad algo and the supported set", e.Error)
		}
		want := strings.Join(algo.ServableNames(), ", ")
		if !strings.Contains(e.Error, want) {
			t.Errorf("error %q does not list the registry's servable names %q", e.Error, want)
		}
		if !strings.Contains(e.Error, "abcc, ecc, gmc3, ig1, ig2, rand, submod") {
			t.Errorf("error %q does not list the servable solvers", e.Error)
		}
	}
}
