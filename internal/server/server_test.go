package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	bcc "repro"
	"repro/internal/dataset"
	"repro/internal/guard"
)

// quickstartFormat is the README running example as a request instance.
func quickstartFormat(utility float64) dataset.FileFormat {
	return dataset.FileFormat{
		Budget: 9,
		Queries: []dataset.FileQuery{
			{Props: []string{"wooden", "table"}, Utility: utility},
			{Props: []string{"running", "shoes"}, Utility: 5},
		},
		Costs: []dataset.FileCost{
			{Props: []string{"wooden"}, Cost: 4},
			{Props: []string{"table"}, Cost: 2},
			{Props: []string{"wooden", "table"}, Cost: 3},
			{Props: []string{"running", "shoes"}, Cost: 6},
		},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func solve(t *testing.T, ts *httptest.Server, req SolveRequest) (*http.Response, SolveResponse) {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/solve", req)
	var out SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding response %s: %v", data, err)
		}
	}
	return resp, out
}

func statz(t *testing.T, ts *httptest.Server) Statz {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Statz
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func planCost(r SolveResponse) float64 {
	var sum float64
	for _, c := range r.Classifiers {
		sum += c.Cost
	}
	return sum
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != "ok" {
		t.Fatalf("healthz body = %v (%v)", body, err)
	}
}

func TestMalformedJSONIs400WithJSONBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":      "{nope",
		"unknown field": `{"instance": {"budget": 1, "queries": [{"props": ["a"], "utility": 1}]}, "daedline_ms": 5}`,
		"wrong type":    `{"instance": "hello"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", name, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s not a JSON {error}: %v", name, data, err)
		}
	}
}

func TestInvalidInstanceAndParams400(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Duplicate query rides the dataset.FromFormat validation.
	ff := quickstartFormat(8)
	ff.Queries = append(ff.Queries, dataset.FileQuery{Props: []string{"table", "wooden"}, Utility: 1})
	if resp, _ := solve(t, ts, SolveRequest{Instance: ff}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate query: status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := solve(t, ts, SolveRequest{Instance: quickstartFormat(8), Algo: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown algo: status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := solve(t, ts, SolveRequest{Instance: quickstartFormat(8), Algo: "gmc3"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("gmc3 without target: status = %d, want 400", resp.StatusCode)
	}
	if s := statz(t, ts); s.BadRequests != 3 {
		t.Errorf("BadRequests = %d, want 3", s.BadRequests)
	}
}

func TestSolveEndToEndMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := solve(t, ts, SolveRequest{Instance: quickstartFormat(8), IncludePlan: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	in, err := dataset.FromFormat(quickstartFormat(8))
	if err != nil {
		t.Fatal(err)
	}
	want := bcc.Solve(in, bcc.Options{})
	if out.Utility != want.Utility || out.Cost != want.Cost {
		t.Errorf("served (u=%v c=%v) != library (u=%v c=%v)", out.Utility, out.Cost, want.Utility, want.Cost)
	}
	if out.Status != "complete" {
		t.Errorf("status = %q", out.Status)
	}
	if out.Fingerprint != in.Fingerprint() {
		t.Errorf("fingerprint %s != instance fingerprint %s", out.Fingerprint, in.Fingerprint())
	}
	if len(out.Classifiers) == 0 {
		t.Error("include_plan returned no classifiers")
	}
	if c := planCost(out); c != out.Cost {
		t.Errorf("plan cost %v != reported cost %v", c, out.Cost)
	}
}

func TestRepeatedRequestServedFromCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SolveRequest{Instance: quickstartFormat(8), IncludePlan: true}

	_, first := solve(t, ts, req)
	if first.Cached {
		t.Fatal("first request claims to be cached")
	}
	_, second := solve(t, ts, req)
	if !second.Cached {
		t.Fatal("identical repeat was not served from cache")
	}
	if second.Utility != first.Utility || second.Cost != first.Cost {
		t.Errorf("cached result differs: %+v vs %+v", second, first)
	}
	s := statz(t, ts)
	if s.Solves != 1 {
		t.Errorf("Solves = %d after an identical repeat, want 1", s.Solves)
	}
	if s.Cache.Hits != 1 || s.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", s.Cache.Hits, s.Cache.Misses)
	}

	// A different budget is a different problem: no cache hit.
	b := 5.0
	_, third := solve(t, ts, SolveRequest{Instance: quickstartFormat(8), Budget: &b})
	if third.Cached {
		t.Error("budget-overridden request hit the old cache entry")
	}
	if third.Fingerprint == first.Fingerprint {
		t.Error("budget override did not change the fingerprint")
	}
}

func TestNoCacheBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SolveRequest{Instance: quickstartFormat(8), NoCache: true}
	solve(t, ts, req)
	solve(t, ts, req)
	s := statz(t, ts)
	if s.Solves != 2 {
		t.Errorf("Solves = %d with no_cache, want 2", s.Solves)
	}
	if s.Cache.Stored != 0 {
		t.Errorf("no_cache stored %d entries", s.Cache.Stored)
	}
}

// Over-deadline solves answer 200 with status=deadline and a
// budget-feasible plan, and are never cached.
func TestDeadlineReturns200WithAnytimePlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 100 ms sits on the light rung of the degradation ladder (50–250 ms):
	// the pipeline still runs phases — and hits the armed delay — rather
	// than dropping to the instant greedy floor.
	guard.Arm("core.phase", guard.DelayFault(250*time.Millisecond))
	defer guard.DisarmAll()

	req := SolveRequest{Instance: quickstartFormat(8), DeadlineMS: 100, IncludePlan: true}
	resp, out := solve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 on deadline", resp.StatusCode)
	}
	if out.Status != "deadline" {
		t.Fatalf("status = %q, want deadline", out.Status)
	}
	if c := planCost(out); c > out.Budget {
		t.Errorf("deadline plan cost %v exceeds budget %v", c, out.Budget)
	}
	if s := statz(t, ts); s.DeadlineResults != 1 {
		t.Errorf("DeadlineResults = %d, want 1", s.DeadlineResults)
	}

	// The truncated result must not have been cached: disarm and repeat
	// — the full solve runs and completes.
	guard.DisarmAll()
	_, again := solve(t, ts, SolveRequest{Instance: quickstartFormat(8)})
	if again.Cached {
		t.Error("truncated result was cached")
	}
	if again.Status != "complete" {
		t.Errorf("post-deadline repeat status = %q", again.Status)
	}
}

// With every worker busy and the queue full, the service sheds load with
// 429 instead of queueing unboundedly.
func TestFullQueueSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	guard.Arm("core.phase", func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	defer func() {
		guard.DisarmAll()
		close(release)
	}()

	results := make(chan int, 2)
	// Distinct utilities → distinct fingerprints → no single-flight merge.
	go func() {
		resp, _ := solve(t, ts, SolveRequest{Instance: quickstartFormat(8)})
		results <- resp.StatusCode
	}()
	<-started // the only worker is now blocked inside a solve

	go func() {
		resp, _ := solve(t, ts, SolveRequest{Instance: quickstartFormat(9)})
		results <- resp.StatusCode
	}()
	// Wait for the second job to occupy the queue slot.
	deadline := time.After(5 * time.Second)
	for s.pool.QueueDepth() != 1 {
		select {
		case <-deadline:
			t.Fatal("second request never reached the queue")
		case <-time.After(time.Millisecond):
		}
	}

	resp, data := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: quickstartFormat(10)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d (%s), want 429", resp.StatusCode, data)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Errorf("429 body %s not a JSON {error}: %v", data, err)
	}
	if got := statz(t, ts); got.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", got.Rejected)
	}

	close(release)
	guard.DisarmAll()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request %d finished with %d", i, code)
		}
	}
	// Rearm-safe: release is closed; prevent the deferred double close.
	release = make(chan struct{})
}

// Concurrent identical requests share exactly one underlying solve.
func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	const followers = 7
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	guard.Arm("core.phase", func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	closeOnce := sync.OnceFunc(func() { close(release) })
	defer func() {
		guard.DisarmAll()
		closeOnce()
	}()

	req := SolveRequest{Instance: quickstartFormat(8), IncludePlan: true}
	codes := make(chan int, followers+1)
	bodies := make(chan SolveResponse, followers+1)
	run := func() {
		resp, out := solve(t, ts, req)
		codes <- resp.StatusCode
		bodies <- out
	}
	go run()
	<-started // leader is mid-solve; its flight is registered
	for i := 0; i < followers; i++ {
		go run()
	}
	// Followers must all be waiting on the leader's flight before the
	// solve is allowed to finish.
	deadline := time.After(5 * time.Second)
	for s.cache.Stats().SharedWaits != followers {
		select {
		case <-deadline:
			t.Fatalf("followers never joined the flight: %+v", s.cache.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	closeOnce()

	var shared int
	for i := 0; i < followers+1; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
		out := <-bodies
		if out.Status != "complete" {
			t.Errorf("request %d: status %q", i, out.Status)
		}
		if out.Shared {
			shared++
		}
	}
	if shared != followers {
		t.Errorf("shared responses = %d, want %d", shared, followers)
	}
	got := statz(t, ts)
	if got.Solves != 1 {
		t.Errorf("Solves = %d for %d concurrent identical requests, want exactly 1", got.Solves, followers+1)
	}
	if got.Cache.Misses != 1 || got.Cache.SharedWaits != followers {
		t.Errorf("cache stats = %+v", got.Cache)
	}
}

func TestBatchMixedResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := BatchRequest{Requests: []SolveRequest{
		{Instance: quickstartFormat(8)},
		{Instance: quickstartFormat(8), Algo: "nope"},
		{Instance: quickstartFormat(8), Algo: "gmc3", Target: 5},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/solve/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("responses = %d", len(out.Responses))
	}
	if out.Responses[0].Result == nil || out.Responses[0].Error != "" {
		t.Errorf("item 0: %+v", out.Responses[0])
	}
	if out.Responses[1].Result != nil || out.Responses[1].Code != http.StatusBadRequest {
		t.Errorf("item 1: %+v", out.Responses[1])
	}
	r2 := out.Responses[2].Result
	if r2 == nil || r2.Achieved == nil || !*r2.Achieved {
		t.Errorf("item 2: %+v", out.Responses[2])
	}
}

func TestBatchCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	batch := BatchRequest{Requests: make([]SolveRequest, 3)}
	for i := range batch.Requests {
		batch.Requests[i] = SolveRequest{Instance: quickstartFormat(float64(8 + i))}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", batch); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/solve/batch", BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
}

func TestAlgoVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range []string{"rand", "ig1", "ig2", "ecc"} {
		resp, out := solve(t, ts, SolveRequest{Instance: quickstartFormat(8), Algo: algo, IncludePlan: true})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", algo, resp.StatusCode)
			continue
		}
		if out.Algo != algo || out.Status != "complete" {
			t.Errorf("%s: %+v", algo, out)
		}
		if algo != "ecc" && planCost(out) > out.Budget {
			t.Errorf("%s: plan cost %v over budget %v", algo, planCost(out), out.Budget)
		}
	}
	// Different algos must not collide in the cache.
	if s := statz(t, ts); s.Cache.Hits != 0 {
		t.Errorf("cross-algo cache hits = %d, want 0", s.Cache.Hits)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := SolveRequest{Instance: quickstartFormat(8)}
	for i := 0; i < 50; i++ {
		big.Instance.Queries = append(big.Instance.Queries,
			dataset.FileQuery{Props: []string{fmt.Sprintf("prop-%d", i)}, Utility: 1})
	}
	resp, _ := postJSON(t, ts.URL+"/v1/solve", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

// A body with anything but whitespace after its JSON value is a 400 at
// every route that decodes one; before, the first value was solved and
// the rest ignored. The trailing newline json.Encoder writes is fine.
func TestTrailingBytesAfterBody400(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	value, err := json.Marshal(SolveRequest{Instance: quickstartFormat(8), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := append(append([]byte(`{"requests":[`), value...), ']', '}')
	for _, tc := range []struct{ route, body string }{
		{"/v1/solve", string(value) + `{"algo":"gmc3"} trailing garbage`},
		{"/v1/solve", string(value) + ` x`},
		{"/v1/solve/batch", string(batch) + `{}`},
	} {
		resp, err := http.Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil ||
			!strings.HasPrefix(e.Msg, "decoding request: ") {
			t.Errorf("%s %q: HTTP %d %s, want 400 decoding request", tc.route, tc.body, resp.StatusCode, data)
		}
	}
	if st := s.Statz(); st.Solves != 0 {
		t.Fatalf("%d solves ran for rejected bodies", st.Solves)
	}
	if code, resp := postRaw(t, ts, append(value, '\n')); code != http.StatusOK || resp.Status != "complete" {
		t.Fatalf("body with a trailing newline: HTTP %d status %q", code, resp.Status)
	}
}
