package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// fakeBackend is a scriptable stand-in for a bccserver: canned solve
// answers and a switchable healthz status — just enough wire
// compatibility for the shared client to talk to it.
type fakeBackend struct {
	id      string
	srv     *httptest.Server
	hits    atomic.Int64
	healthz atomic.Int32
}

func newFakeBackend(t *testing.T, id string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{id: id}
	f.healthz.Store(http.StatusOK)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		w.Header().Set(api.BackendHeader, f.id)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.SolveResponse{Fingerprint: "fake", Algo: "abcc", Status: "complete"})
	})
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		var br api.BatchRequest
		_ = json.NewDecoder(r.Body).Decode(&br)
		items := make([]api.BatchItem, len(br.Requests))
		for i := range items {
			items[i] = api.BatchItem{Result: &api.SolveResponse{Fingerprint: "fake", Algo: "abcc", Status: "complete"}}
		}
		w.Header().Set(api.BackendHeader, f.id)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.BatchResponse{Responses: items})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.BackendHeader, f.id)
		w.WriteHeader(int(f.healthz.Load()))
		_, _ = w.Write([]byte(`{}`))
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// newRealBackend runs a full in-process bccserver behind httptest.
func newRealBackend(t *testing.T, id string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, Queue: 32, BackendID: id})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// newTestCluster builds a cluster with a test-friendly long probe
// interval (tests drive probes explicitly via ProbeNow or rely on
// in-band failure detection).
func newTestCluster(t *testing.T, urls []string, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Backends:      urls,
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustFingerprint(t *testing.T, req *api.SolveRequest) string {
	t.Helper()
	fp, apiErr := RouteFingerprint(req)
	if apiErr != nil {
		t.Fatalf("RouteFingerprint: %v", apiErr)
	}
	return fp
}

// An instance re-sent through the cluster must land on the same backend
// and come back as a cache hit — the whole point of fingerprint
// affinity.
func TestSolveAffinity(t *testing.T) {
	_, tsA := newRealBackend(t, "aff-a")
	_, tsB := newRealBackend(t, "aff-b")
	c := newTestCluster(t, []string{tsA.URL, tsB.URL}, nil)

	ctx := context.Background()
	for i, req := range loadgen.SyntheticWorkload(5, 1) {
		fp := mustFingerprint(t, &req)
		resp1, route1, err := c.Solve(ctx, &req, fp)
		if err != nil {
			t.Fatalf("req %d first solve: %v", i, err)
		}
		if resp1.Cached {
			t.Fatalf("req %d: first solve of a distinct instance came back cached", i)
		}
		if !route1.Affinity {
			t.Fatalf("req %d: first solve with all backends healthy was not an affinity pick", i)
		}
		resp2, route2, err := c.Solve(ctx, &req, fp)
		if err != nil {
			t.Fatalf("req %d second solve: %v", i, err)
		}
		if !resp2.Cached {
			t.Fatalf("req %d: re-sent instance was not a cache hit (routed to %s after %s)",
				i, route2.BackendURL, route1.BackendURL)
		}
		if route2.BackendURL != route1.BackendURL {
			t.Fatalf("req %d: affinity broke: %s then %s", i, route1.BackendURL, route2.BackendURL)
		}
		if want := Top(fp, c.Backends()); route1.BackendURL != want {
			t.Fatalf("req %d: routed to %s, rendezvous-first is %s", i, route1.BackendURL, want)
		}
	}
	st := c.Stats()
	if st.FallbackPicks != 0 {
		t.Fatalf("healthy cluster used %d fallback picks", st.FallbackPicks)
	}
	if st.AffinityPicks != 10 {
		t.Fatalf("affinity picks = %d, want 10", st.AffinityPicks)
	}
}

// Killing the affinity backend mid-run must not fail the request: the
// first call discovers the death in-band and fails over to the
// secondary; subsequent calls route around the corpse entirely.
func TestSolveFailoverOnDeadBackend(t *testing.T) {
	_, tsA := newRealBackend(t, "fo-a")
	_, tsB := newRealBackend(t, "fo-b")
	c := newTestCluster(t, []string{tsA.URL, tsB.URL}, nil)

	req := loadgen.SyntheticWorkload(1, 3)[0]
	fp := mustFingerprint(t, &req)
	top := Top(fp, c.Backends())
	var other string
	if top == tsA.URL {
		tsA.Close()
		other = tsB.URL
	} else {
		tsB.Close()
		other = tsA.URL
	}

	ctx := context.Background()
	resp, route, err := c.Solve(ctx, &req, fp)
	if err != nil {
		t.Fatalf("solve with dead affinity backend: %v", err)
	}
	if !route.FailedOver {
		t.Fatalf("route = %+v, want FailedOver", route)
	}
	if route.BackendURL != other {
		t.Fatalf("answered by %s, want the surviving backend %s", route.BackendURL, other)
	}
	if resp.Status == "" {
		t.Fatal("failover answer has no status")
	}
	if got := c.Stats().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	// The transport failure marked the corpse unhealthy, so the next call
	// is routed directly (no failover) even though no probe ran.
	_, route2, err := c.Solve(ctx, &req, fp)
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if route2.BackendURL != other || route2.FailedOver {
		t.Fatalf("second route = %+v, want direct pick of %s", route2, other)
	}
}

// When the affinity backend reports draining, routing must fall back to
// another backend without failing the request.
func TestSolveFallbackWhenAffinityDraining(t *testing.T) {
	fa := newFakeBackend(t, "drain-a")
	fb := newFakeBackend(t, "drain-b")
	c := newTestCluster(t, []string{fa.srv.URL, fb.srv.URL}, nil)

	const fp = "bccfp/1:drain-test"
	top := Top(fp, c.Backends())
	slow, fast := fa, fb
	if top == fb.srv.URL {
		slow, fast = fb, fa
	}
	slow.healthz.Store(http.StatusServiceUnavailable)
	c.ProbeNow()

	resp, route, err := c.Solve(context.Background(), &api.SolveRequest{}, fp)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if route.Affinity {
		t.Fatal("pick of a draining affinity backend was reported as an affinity hit")
	}
	if route.BackendURL != fast.srv.URL {
		t.Fatalf("routed to %s, want the serving backend %s", route.BackendURL, fast.srv.URL)
	}
	if route.BackendID != fast.id {
		t.Fatalf("route.BackendID = %q, want the probed ID %q", route.BackendID, fast.id)
	}
	if resp.Status != "complete" {
		t.Fatalf("status = %q", resp.Status)
	}
	if slow.hits.Load() != 0 {
		t.Fatalf("draining backend still received %d solves", slow.hits.Load())
	}
}

// With every backend ineligible, Solve must answer ErrNoBackends
// immediately rather than hanging or guessing.
func TestSolveNoEligibleBackend(t *testing.T) {
	fa := newFakeBackend(t, "none-a")
	fb := newFakeBackend(t, "none-b")
	c := newTestCluster(t, []string{fa.srv.URL, fb.srv.URL}, nil)
	fa.healthz.Store(http.StatusServiceUnavailable)
	fb.healthz.Store(http.StatusServiceUnavailable)
	c.ProbeNow()

	if n := c.EligibleBackends(); n != 0 {
		t.Fatalf("EligibleBackends = %d, want 0", n)
	}
	_, _, err := c.Solve(context.Background(), &api.SolveRequest{}, "bccfp/1:x")
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
	if got := c.Stats().NoBackend; got != 1 {
		t.Fatalf("no-backend counter = %d, want 1", got)
	}
}

// When the primary and the failover backend both fail retryably, the
// caller gets the primary's error: the request belonged there.
func TestSolveBothBackendsFailReturnsPrimaryError(t *testing.T) {
	fa := newFakeBackend(t, "both-a")
	fb := newFakeBackend(t, "both-b")
	c := newTestCluster(t, []string{fa.srv.URL, fb.srv.URL}, nil)
	fa.srv.Close() // dead after the initial probe: the cluster still trusts both
	fb.srv.Close()

	const fp = "bccfp/1:both-dead"
	top := Top(fp, c.Backends())
	_, route, err := c.Solve(context.Background(), &api.SolveRequest{}, fp)
	if err == nil {
		t.Fatal("solve against a dead fleet succeeded")
	}
	if !route.FailedOver {
		t.Fatalf("route = %+v, want FailedOver", route)
	}
	var ue *url.Error
	if !errors.As(err, &ue) || !strings.HasPrefix(ue.URL, top) {
		t.Fatalf("err = %v, want the primary %s's transport error", err, top)
	}
}

// Scatter-gather must reassemble in input order: every item's response
// carries the fingerprint of the request at the same index, independent
// of which backend shard answered it.
func TestSolveBatchOrdering(t *testing.T) {
	_, tsA := newRealBackend(t, "sg-a")
	_, tsB := newRealBackend(t, "sg-b")
	_, tsC := newRealBackend(t, "sg-c")
	c := newTestCluster(t, []string{tsA.URL, tsB.URL, tsC.URL}, nil)

	reqs := loadgen.SyntheticWorkload(10, 2)
	reqs = append(reqs, reqs[0], reqs[4]) // duplicates must stay positional
	fps := make([]string, len(reqs))
	for i := range reqs {
		fps[i] = mustFingerprint(t, &reqs[i])
	}

	resp := c.SolveBatch(context.Background(), reqs, fps)
	if len(resp.Responses) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(resp.Responses), len(reqs))
	}
	for i, item := range resp.Responses {
		if item.Result == nil {
			t.Fatalf("item %d: no result (error %q code %d)", i, item.Error, item.Code)
		}
		if item.Result.Fingerprint != fps[i] {
			t.Fatalf("item %d: fingerprint %s, want %s — order not preserved", i, item.Result.Fingerprint, fps[i])
		}
	}
}

// A backend dying under a batch must cost only a re-route, not answers:
// its shard is retried on the survivors and every item still gets a
// result, in order.
func TestSolveBatchKilledBackend(t *testing.T) {
	_, tsA := newRealBackend(t, "kill-a")
	_, tsB := newRealBackend(t, "kill-b")
	c := newTestCluster(t, []string{tsA.URL, tsB.URL}, nil)
	tsB.Close() // dies after the initial probe: the cluster still trusts it

	reqs := loadgen.SyntheticWorkload(16, 5)
	fps := make([]string, len(reqs))
	for i := range reqs {
		fps[i] = mustFingerprint(t, &reqs[i])
	}
	resp := c.SolveBatch(context.Background(), reqs, fps)
	if len(resp.Responses) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(resp.Responses), len(reqs))
	}
	for i, item := range resp.Responses {
		if item.Result == nil {
			t.Fatalf("item %d lost to the dead backend: error %q code %d", i, item.Error, item.Code)
		}
		if item.Result.Fingerprint != fps[i] {
			t.Fatalf("item %d: fingerprint %s, want %s", i, item.Result.Fingerprint, fps[i])
		}
	}
}

// With the whole fleet dead, a batch must still return one item per
// request — each a structured error, never a hang or a zero value.
func TestSolveBatchAllBackendsDead(t *testing.T) {
	fa := newFakeBackend(t, "dead-a")
	fb := newFakeBackend(t, "dead-b")
	c := newTestCluster(t, []string{fa.srv.URL, fb.srv.URL}, nil)
	fa.srv.Close()
	fb.srv.Close()

	reqs := loadgen.SyntheticWorkload(4, 6)
	fps := make([]string, len(reqs))
	for i := range reqs {
		fps[i] = mustFingerprint(t, &reqs[i])
	}
	resp := c.SolveBatch(context.Background(), reqs, fps)
	if len(resp.Responses) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(resp.Responses), len(reqs))
	}
	for i, item := range resp.Responses {
		if item.Result != nil {
			t.Fatalf("item %d has a result from a dead fleet", i)
		}
		if item.Error == "" || item.Code == 0 {
			t.Fatalf("item %d: unstructured failure %+v", i, item)
		}
	}
}

// SIGHUP-style membership reload must keep the surviving backends'
// state: accumulated request counts survive, only genuinely new members
// start fresh — and the removed member stops being routable.
func TestSetBackendsPreservesState(t *testing.T) {
	fa := newFakeBackend(t, "m-a")
	fb := newFakeBackend(t, "m-b")
	fc := newFakeBackend(t, "m-c")
	c := newTestCluster(t, []string{fa.srv.URL, fb.srv.URL}, nil)

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, _, err := c.Solve(ctx, &api.SolveRequest{}, "bccfp/1:reload"); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	before := map[string]uint64{}
	for _, b := range c.Stats().Backends {
		before[b.URL] = b.Requests
	}

	if err := c.SetBackends([]string{fa.srv.URL, fb.srv.URL, fc.srv.URL}); err != nil {
		t.Fatalf("SetBackends: %v", err)
	}
	st := c.Stats()
	if len(st.Backends) != 3 {
		t.Fatalf("membership size %d after reload, want 3", len(st.Backends))
	}
	for _, b := range st.Backends {
		if b.URL == fc.srv.URL {
			if b.Requests != 0 {
				t.Fatalf("new member starts with %d requests", b.Requests)
			}
			continue
		}
		if b.Requests != before[b.URL] {
			t.Fatalf("member %s: requests %d after reload, want %d", b.URL, b.Requests, before[b.URL])
		}
	}

	if err := c.SetBackends([]string{fc.srv.URL}); err != nil {
		t.Fatalf("SetBackends shrink: %v", err)
	}
	_, route, err := c.Solve(ctx, &api.SolveRequest{}, "bccfp/1:reload")
	if err != nil {
		t.Fatalf("solve after shrink: %v", err)
	}
	if route.BackendURL != fc.srv.URL {
		t.Fatalf("routed to removed member %s", route.BackendURL)
	}
	if err := c.SetBackends(nil); err == nil {
		t.Fatal("SetBackends(nil) should refuse to empty the membership")
	}
}

// A request the backend rejects as invalid (HTTP 400) must come back to
// the caller as that rejection, not trigger failover — every backend
// would answer the same.
func TestSolveNonRetryableNoFailover(t *testing.T) {
	_, tsA := newRealBackend(t, "nr-a")
	_, tsB := newRealBackend(t, "nr-b")
	c := newTestCluster(t, []string{tsA.URL, tsB.URL}, nil)

	req := loadgen.SyntheticWorkload(1, 9)[0]
	req.Algo = "no-such-algo"
	fp := mustFingerprint(t, &req)
	_, _, err := c.Solve(context.Background(), &req, fp)
	if err == nil {
		t.Fatal("invalid algo was accepted")
	}
	if c.Stats().Failovers != 0 {
		t.Fatal("a 400 answer triggered failover")
	}
}

// A health probe must leave its connection reusable: probing one
// backend many times opens about one connection, not one per probe.
func TestProbeReusesConnection(t *testing.T) {
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := newTestCluster(t, []string{ts.URL}, nil) // probes once
	const probes = 40
	for i := 0; i < probes; i++ {
		c.ProbeNow()
	}
	if n := opened.Load(); n > probes/8 {
		t.Fatalf("%d health probes opened %d connections, want them to share a few", probes+1, n)
	}
}
