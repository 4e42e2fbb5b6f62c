package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/incr"
)

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

func TestSolveWarmFromRequestPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, cold := solve(t, ts, SolveRequest{Instance: quickstartFormat(3), IncludePlan: true})
	if len(cold.Classifiers) == 0 {
		t.Fatalf("cold solve returned no plan: %+v", cold)
	}
	if cold.WarmSource != "" {
		t.Fatalf("cold solve reports WarmSource %q", cold.WarmSource)
	}
	plan := make([][]string, len(cold.Classifiers))
	for i, c := range cold.Classifiers {
		plan[i] = c.Props
	}

	// NoCache keeps the second request off the exact-hit path so the
	// warm machinery actually runs.
	_, warm := solve(t, ts, SolveRequest{
		Instance: quickstartFormat(3), IncludePlan: true,
		NoCache: true, WarmPlan: plan,
	})
	if warm.WarmSource != api.WarmSourceRequest {
		t.Fatalf("WarmSource = %q, want %q", warm.WarmSource, api.WarmSourceRequest)
	}
	if warm.Utility < cold.Utility {
		t.Fatalf("warm utility %v below cold %v", warm.Utility, cold.Utility)
	}
	st := statz(t, ts)
	if st.Incr.WarmRequest < 1 {
		t.Errorf("statz incr = %+v, want warm_request >= 1", st.Incr)
	}
}

func TestSolveWarmFromCacheSibling(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Prime the cache at budget 9, then ask for the same query set at a
	// different budget: new fingerprint (cache miss) but same bccfp2/1,
	// so the near-miss index donates the budget-9 plan as a warm seed.
	_, first := solve(t, ts, SolveRequest{Instance: quickstartFormat(3), IncludePlan: true})
	if first.Fingerprint2 == "" {
		t.Fatal("solve response carries no fingerprint2")
	}

	shrunk := quickstartFormat(3)
	shrunk.Budget = 6
	_, second := solve(t, ts, SolveRequest{Instance: shrunk, IncludePlan: true})
	if second.Fingerprint2 != first.Fingerprint2 {
		t.Fatalf("fp2 changed with budget: %q vs %q", second.Fingerprint2, first.Fingerprint2)
	}

	st := statz(t, ts)
	if st.Incr.SiblingHits < 1 {
		t.Fatalf("statz incr = %+v, want sibling_hits >= 1", st.Incr)
	}
	// The warm answer must still clear the IG1 quality floor — either
	// the seeded solve did, or the floor guard re-ran it cold.
	in, err := dataset.FromFormat(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if second.Utility < incr.Floor(in) {
		t.Fatalf("sibling-warm utility %v below IG1 floor %v", second.Utility, incr.Floor(in))
	}
	if second.WarmSource != api.WarmSourceSibling && st.Incr.FloorFallbacks == 0 {
		t.Errorf("WarmSource = %q with no floor fallback, want %q", second.WarmSource, api.WarmSourceSibling)
	}
}

func TestCacheEntryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, resp := solve(t, ts, SolveRequest{Instance: quickstartFormat(3), IncludePlan: true})

	key := api.CacheKey(resp.Fingerprint, resp.Algo, 0, 0)
	var exact api.CacheEntryResponse
	if code := getJSON(t, ts.URL+"/v1/cache/entry?key="+key, &exact); code != http.StatusOK {
		t.Fatalf("exact lookup = %d", code)
	}
	if exact.Key != key || exact.Sibling || exact.Response == nil || len(exact.Response.Classifiers) == 0 {
		t.Fatalf("exact entry = %+v, want key match with plan", exact)
	}

	var sib api.CacheEntryResponse
	code := getJSON(t, ts.URL+"/v1/cache/entry?fp2="+resp.Fingerprint2+"&algo="+resp.Algo, &sib)
	if code != http.StatusOK {
		t.Fatalf("sibling lookup = %d", code)
	}
	if !sib.Sibling || sib.Key != key || sib.Response == nil {
		t.Fatalf("sibling entry = %+v, want sibling=true key=%s", sib, key)
	}

	if code := getJSON(t, ts.URL+"/v1/cache/entry?key=nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown key = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cache/entry?fp2=deadbeef&algo=abcc", nil); code != http.StatusNotFound {
		t.Errorf("unknown fp2 = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cache/entry", nil); code != http.StatusBadRequest {
		t.Errorf("missing params = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cache/entry?fp2=deadbeef", nil); code != http.StatusBadRequest {
		t.Errorf("fp2 without algo = %d, want 400", code)
	}
}

// A warm solve whose deadline runs out before its worker starts must
// still answer at or above the IG1 floor: the registry computes the IG1
// plan without the request's deadline and answers with it.
func TestWarmSolveHoldsFloorPastDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	guard.Arm("server.pool.dequeue", guard.DelayFault(100*time.Millisecond))
	defer guard.DisarmAll()

	// A poor seed: two half-covers of one query spend budget the IG1
	// plan puts to better use.
	_, resp := solve(t, ts, SolveRequest{
		Instance: quickstartFormat(3), NoCache: true, DeadlineMS: 10,
		WarmPlan: [][]string{{"wooden"}, {"table"}},
	})
	if resp.WarmSource != api.WarmSourceRequest {
		t.Errorf("WarmSource = %q, want %q", resp.WarmSource, api.WarmSourceRequest)
	}
	if resp.Status != guard.DeadlineExceeded.String() {
		t.Errorf("status = %q, want the solver's %q", resp.Status, guard.DeadlineExceeded)
	}
	in, err := dataset.FromFormat(quickstartFormat(3))
	if err != nil {
		t.Fatal(err)
	}
	if floor := incr.Floor(in); resp.Utility < floor {
		t.Fatalf("warm answer past its deadline has utility %v, below the IG1 floor %v", resp.Utility, floor)
	}
	if got := s.Statz().Incr.FloorFallbacks; got != 1 {
		t.Errorf("floor fallbacks = %d, want 1", got)
	}
}

// A warm request that joins an identical request's in-flight solve and
// whose deadline runs out while it waits must still answer at or above
// the IG1 floor: it answers from a solve of its own on its expired
// context, which the registry holds to the floor. It used to answer the
// empty plan.
func TestSharedWaiterPastDeadlineHoldsFloor(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	release := make(chan struct{})
	guard.Arm("server.pool.dequeue", func() { <-release })
	defer guard.DisarmAll()

	warm := [][]string{{"wooden"}, {"table"}}
	leader := make(chan *Error, 1)
	go func() {
		_, apiErr := s.Solve(context.Background(), &SolveRequest{Instance: quickstartFormat(3), WarmPlan: warm})
		leader <- apiErr
	}()
	for s.inflight.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	resp, apiErr := s.Solve(context.Background(), &SolveRequest{
		Instance: quickstartFormat(3), WarmPlan: warm, DeadlineMS: 20,
	})
	close(release)
	if apiErr != nil {
		t.Fatalf("waiter: %v", apiErr)
	}
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got := s.cache.Stats().SharedWaits; got != 1 {
		t.Fatalf("shared waits = %d, want 1: the second request did not join the flight", got)
	}
	in, err := dataset.FromFormat(quickstartFormat(3))
	if err != nil {
		t.Fatal(err)
	}
	if floor := incr.Floor(in); resp.Utility < floor {
		t.Fatalf("waiter past its deadline answered utility %v, below the IG1 floor %v", resp.Utility, floor)
	}
	if resp.Shared || resp.WarmSource != api.WarmSourceRequest {
		t.Errorf("waiter answer shared=%v warm_source=%q, want its own warm solve", resp.Shared, resp.WarmSource)
	}
}

func TestSnapshotRestoreRebuildsSiblingIndex(t *testing.T) {
	s1, ts1 := newTestServer(t, Config{})
	if _, r := solve(t, ts1, SolveRequest{Instance: quickstartFormat(3), IncludePlan: true}); r.Fingerprint == "" {
		t.Fatal("priming solve failed")
	}
	path := filepath.Join(t.TempDir(), "cache.bccsnap")
	if n, err := s1.SaveSnapshot(path); err != nil || n < 1 {
		t.Fatalf("SaveSnapshot = %d, %v", n, err)
	}

	// The restored server must answer a budget-variant of the
	// snapshotted instance through the sibling index, without ever
	// having solved the original itself.
	s2, ts2 := newTestServer(t, Config{})
	if n, err := s2.RestoreSnapshot(path); err != nil || n < 1 {
		t.Fatalf("RestoreSnapshot = %d, %v", n, err)
	}
	shrunk := quickstartFormat(3)
	shrunk.Budget = 6
	if _, r := solve(t, ts2, SolveRequest{Instance: shrunk, IncludePlan: true}); r.Fingerprint == "" {
		t.Fatal("solve on restored server failed")
	}
	if st := s2.Statz(); st.Incr.SiblingHits < 1 {
		t.Fatalf("restored server incr = %+v, want sibling_hits >= 1 (index not rebuilt)", st.Incr)
	}
}

func TestPipelineWarmChainsAcrossWindows(t *testing.T) {
	_, ts := newPipelineServer(t, Config{})
	if resp, data := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Lines: ingestLines(3)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, data)
	}

	awaitSeq := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			var plan api.CurrentPlanResponse
			if code := getJSON(t, ts.URL+"/v1/plan/current", &plan); code == http.StatusOK && plan.Seq >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no plan with seq >= %d after 10s", want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	awaitSeq(1)

	// A second window over overlapping terms: its solve request must be
	// seeded from the plan the first window published.
	if resp, data := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Lines: ingestLines(5)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest = %d: %s", resp.StatusCode, data)
	}
	awaitSeq(2)

	st := statz(t, ts)
	if st.Pipeline == nil || st.Pipeline.WarmChained < 1 {
		t.Fatalf("statz pipeline = %+v, want warm_chained >= 1", st.Pipeline)
	}
	if st.Incr.WarmRequest < 1 {
		t.Errorf("statz incr = %+v, want the chained window counted as a request-sourced warm solve", st.Incr)
	}
}

func TestPlanCurrentETag(t *testing.T) {
	_, ts := newPipelineServer(t, Config{})
	if resp, data := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Lines: ingestLines(3)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, data)
	}

	// Wait for the first publish and capture its validator.
	var etag string
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/plan/current")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			etag = r.Header.Get("ETag")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no plan published after 10s; last status %d", r.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if etag == "" || etag[0] != '"' {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}

	conditional := func(inm string) (int, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/plan/current", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, string(body)
	}

	// The backlog is drained (plan published), so the validator is
	// stable: matching conditionals are 304s with empty bodies.
	if code, body := conditional(etag); code != http.StatusNotModified || body != "" {
		t.Fatalf("If-None-Match %s = %d %q, want 304 with empty body", etag, code, body)
	}
	if code, _ := conditional("W/" + etag + `, "other"`); code != http.StatusNotModified {
		t.Errorf("weak + list form not honored (got %d)", code)
	}
	if code, _ := conditional("*"); code != http.StatusNotModified {
		t.Errorf("wildcard = %d, want 304", code)
	}
	if code, _ := conditional(`"stale-validator"`); code != http.StatusOK {
		t.Errorf("mismatched validator = %d, want 200", code)
	}
}
