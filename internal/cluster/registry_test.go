package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/client"
	"repro/internal/loadgen"
)

// TestNewSolverFamiliesThroughGateway routes algo=submod through the
// full gateway path (rendezvous pick, shared client, real backend): it
// must come back complete and budget-feasible, with the registry name
// echoed.
func TestNewSolverFamiliesThroughGateway(t *testing.T) {
	_, tsA := newRealBackend(t, "reg-a")
	_, tsB := newRealBackend(t, "reg-b")
	c := newTestCluster(t, []string{tsA.URL, tsB.URL}, nil)

	ctx := context.Background()
	for _, name := range []string{"submod"} {
		req := loadgen.SyntheticWorkload(1, 13)[0]
		req.Algo = name
		req.IncludePlan = true
		fp := mustFingerprint(t, &req)
		resp, route, err := c.Solve(ctx, &req, fp)
		if err != nil {
			t.Fatalf("%s: gateway solve: %v", name, err)
		}
		if !route.Affinity {
			t.Errorf("%s: healthy cluster did not use the affinity pick: %+v", name, route)
		}
		if resp.Algo != name || resp.Status != "complete" {
			t.Errorf("%s: response algo=%q status=%q, want %s/complete", name, resp.Algo, resp.Status, name)
		}
		if resp.Utility <= 0 {
			t.Errorf("%s: utility = %v, want > 0", name, resp.Utility)
		}
		if resp.Cost > resp.Budget+1e-9 {
			t.Errorf("%s: cost %v exceeds budget %v", name, resp.Cost, resp.Budget)
		}
		if len(resp.Classifiers) == 0 {
			t.Errorf("%s: include_plan returned no classifiers", name)
		}
	}
}

// TestUnknownAlgoThroughGatewayListsSupported verifies the backend's
// registry-driven 400 survives the gateway unchanged: the caller sees
// the full servable list, not a generic routing error. evo is a retired
// solver's name.
func TestUnknownAlgoThroughGatewayListsSupported(t *testing.T) {
	_, tsA := newRealBackend(t, "reg-e")
	c := newTestCluster(t, []string{tsA.URL}, nil)

	for _, name := range []string{"anneal", "evo"} {
		req := loadgen.SyntheticWorkload(1, 14)[0]
		req.Algo = name
		fp := mustFingerprint(t, &req)
		_, _, err := c.Solve(context.Background(), &req, fp)
		if err == nil {
			t.Fatalf("unknown algo %q was accepted through the gateway", name)
		}
		var he *client.HTTPError
		if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: gateway error %v, want the backend's 400", name, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "supported:") {
			t.Errorf("gateway error %q lost the supported-algorithms hint", msg)
		}
		if want := strings.Join(algo.ServableNames(), ", "); !strings.Contains(msg, want) {
			t.Errorf("gateway error %q does not list the registry's servable names %q", msg, want)
		}
		if !strings.Contains(msg, "abcc, ecc, gmc3, ig1, ig2, rand, submod") {
			t.Errorf("gateway error %q does not list the servable solvers", msg)
		}
	}
}
