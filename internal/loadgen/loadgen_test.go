package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/resilience"
)

func fakeService(t *testing.T, shedEvery int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if shedEvery > 0 && n%int64(shedEvery) == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full","retry_after_seconds":1}`))
			return
		}
		switch r.URL.Path {
		case "/v1/solve":
			json.NewEncoder(w).Encode(&api.SolveResponse{Status: "complete", Cached: n%2 == 0})
		case "/v1/solve/batch":
			var in api.BatchRequest
			json.NewDecoder(r.Body).Decode(&in)
			out := api.BatchResponse{}
			for range in.Requests {
				out.Responses = append(out.Responses, api.BatchItem{Result: &api.SolveResponse{Status: "complete"}})
			}
			json.NewEncoder(w).Encode(&out)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	return srv, &calls
}

func newTestClient(t *testing.T, url string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{BaseURL: url, MaxAttempts: 1, DisableBreaker: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunTalliesResultsAndBatches(t *testing.T) {
	srv, _ := fakeService(t, 0)
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Client:      newTestClient(t, srv.URL),
		Requests:    SyntheticWorkload(4, 1),
		Concurrency: 3,
		Duration:    150 * time.Millisecond,
		BatchEvery:  5,
		BatchSize:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.OK == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Errorf("failures against a healthy fake: %+v", rep.Errors)
	}
	if rep.BatchItems == 0 {
		t.Error("BatchEvery=5 produced no batch items")
	}
	if rep.Statuses["complete"] == 0 || rep.CacheHits == 0 {
		t.Errorf("statuses = %v, cache hits = %d", rep.Statuses, rep.CacheHits)
	}
	if rep.Client.Requests == 0 {
		t.Error("client stats not captured")
	}
	if s := rep.String(); s == "" {
		t.Error("empty report rendering")
	}
}

// Every tallied op's latency lands in the report's quantiles, in both
// the JSON and the text rendering. One call in ten is held 60 ms, so the
// tail quantiles must sit in that slow tenth and above the median.
func TestRunReportsLatencyQuantiles(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%10 == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		json.NewEncoder(w).Encode(&api.SolveResponse{Status: "complete"})
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Client:      newTestClient(t, srv.URL),
		Requests:    SyntheticWorkload(2, 3),
		Concurrency: 2,
		Duration:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops < 20 {
		t.Fatalf("too few ops for a tail: %d", rep.Ops)
	}
	p50, p95, p99 := rep.LatencyP50MS, rep.LatencyP95MS, rep.LatencyP99MS
	if !(p50 > 0 && p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles p50=%v p95=%v p99=%v: want present and ordered", p50, p95, p99)
	}
	if p99 < 60 {
		t.Errorf("p99 = %v ms, want at least the 60 ms of the slow tenth", p99)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"latency_p50_ms"`, `"latency_p95_ms"`, `"latency_p99_ms"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON report lacks %s: %s", key, raw)
		}
	}
	if !strings.Contains(rep.String(), "latency p50=") {
		t.Errorf("text report lacks the latency line:\n%s", rep.String())
	}
}

func TestRunClassifiesShedding(t *testing.T) {
	srv, _ := fakeService(t, 3) // every 3rd call answers 429
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Client:      newTestClient(t, srv.URL),
		Requests:    SyntheticWorkload(2, 7),
		Concurrency: 2,
		Duration:    120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors["http-429"] == 0 {
		t.Errorf("shed answers not classified: %+v", rep.Errors)
	}
	if rep.Ops != rep.OK+rep.Failed {
		t.Errorf("ops %d != ok %d + failed %d", rep.Ops, rep.OK, rep.Failed)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("want error without a client")
	}
	c := newTestClient(t, "http://127.0.0.1:0")
	if _, err := Run(context.Background(), Config{Client: c}); err == nil {
		t.Error("want error with an empty workload")
	}
}

func TestSyntheticWorkloadDeterministicAndDistinct(t *testing.T) {
	a, b := SyntheticWorkload(6, 42), SyntheticWorkload(6, 42)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("same seed produced different workloads")
	}
	if len(a) != 6 {
		t.Fatalf("len = %d", len(a))
	}
	distinct := map[string]bool{}
	for _, r := range a {
		j, _ := json.Marshal(r.Instance)
		distinct[string(j)] = true
		if r.Instance.Budget <= 0 || len(r.Instance.Queries) == 0 {
			t.Errorf("degenerate instance: %s", j)
		}
	}
	if len(distinct) < 2 {
		t.Error("workload instances are not distinct")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{resilience.ErrOpen, "breaker-open"},
		{context.DeadlineExceeded, "deadline"},
		{&client.HTTPError{StatusCode: 429}, "http-429"},
		{&client.HTTPError{StatusCode: 503}, "http-5xx"},
		{&client.HTTPError{StatusCode: 400}, "http-4xx"},
		{errors.New("connection refused"), "transport"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
