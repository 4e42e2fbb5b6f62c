package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// quickReq is a minimal valid solve request (one unit-cost classifier
// covering one query, budget 1) so fake servers can echo plausible
// bodies without running a solver.
func quickReq() *api.SolveRequest {
	raw := `{"budget":1,"queries":[{"props":["p"],"utility":1}],"costs":[{"props":["p"],"cost":1}]}`
	req := &api.SolveRequest{}
	if err := json.Unmarshal([]byte(raw), &req.Instance); err != nil {
		panic(err)
	}
	return req
}

func okBody() []byte {
	b, _ := json.Marshal(&api.SolveResponse{Fingerprint: "fp", Algo: "abcc", Status: "complete", Utility: 1})
	return b
}

// newClient builds a Client against url with no real sleeping: every
// scheduled retry delay is appended to *slept instead of waited out.
func newClient(t *testing.T, url string, slept *[]time.Duration, cfg Config) *Client {
	t.Helper()
	cfg.BaseURL = url
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.retrier.Backoff.Rand = func() float64 { return 0.5 } // jitter term 1.0: deterministic delays
	c.retrier.Sleep = func(_ context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
	return c
}

func TestSolveSuccessFirstTry(t *testing.T) {
	var gotPath atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath.Store(r.URL.Path)
		w.Write(okBody())
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	resp, err := c.Solve(context.Background(), quickReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "complete" || resp.Fingerprint != "fp" {
		t.Errorf("resp = %+v", resp)
	}
	if p := gotPath.Load(); p != "/v1/solve" {
		t.Errorf("posted to %v", p)
	}
	if len(slept) != 0 {
		t.Errorf("slept %v on a clean call", slept)
	}
	st := c.Stats()
	if st.Requests != 1 || st.Successes != 1 || st.Failures != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetriesTransientServerErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, `{"error":"transient"}`, http.StatusBadGateway)
			return
		}
		w.Write(okBody())
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	if _, err := c.Solve(context.Background(), quickReq()); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3", n)
	}
	if len(slept) != 2 {
		t.Errorf("slept %v, want 2 backoff delays", slept)
	}
	if st := c.Stats(); st.Retries != 2 || st.Successes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoesNotRetryCallerErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"algo \"nope\" unknown"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	_, err := c.Solve(context.Background(), quickReq())
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want *HTTPError 400", err)
	}
	if !strings.Contains(he.Msg, "unknown") {
		t.Errorf("error body not extracted: %q", he.Msg)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("a 400 was retried: %d calls", n)
	}
	if st := c.Stats(); st.Failures != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRespectsRetryAfterAdvice is the ISSUE's satellite check: a shed
// 429 carrying Retry-After: 7 must not be retried before the advised
// delay — the recorded sleep is stretched to 7s even though the
// backoff alone would be ~100ms.
func TestRespectsRetryAfterAdvice(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": "queue full", "retry_after_seconds": 7})
			return
		}
		w.Write(okBody())
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	if _, err := c.Solve(context.Background(), quickReq()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v, want exactly one stretched delay", slept)
	}
	if slept[0] < 7*time.Second {
		t.Errorf("retried after %v, before the server's 7s Retry-After advice", slept[0])
	}
}

// RFC 9110 §10.2.3 allows Retry-After to be an HTTP-date instead of
// delta-seconds; the advised sleep must stretch to roughly the gap
// between now and that date.
func TestRespectsRetryAfterHTTPDate(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(7*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.Write(okBody())
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	if _, err := c.Solve(context.Background(), quickReq()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v, want exactly one stretched delay", slept)
	}
	// HTTP-dates have whole-second resolution, so the parsed advice can
	// round down by up to a second from the 7s the server intended.
	if slept[0] < 5*time.Second {
		t.Errorf("retried after %v, before the server's HTTP-date advice", slept[0])
	}
}

// An HTTP-date in the past means "no wait", not "no advice": the retry
// falls back to ordinary backoff instead of a stretched sleep.
func TestRetryAfterHTTPDateInPast(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.Write(okBody())
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	if _, err := c.Solve(context.Background(), quickReq()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v, want exactly one backoff delay", slept)
	}
	if slept[0] > time.Second {
		t.Errorf("slept %v on a past-date Retry-After; want plain backoff", slept[0])
	}
}

// A Retry-After that overshoots the caller's deadline aborts instead of
// scheduling a doomed sleep.
func TestRetryAfterBeyondDeadlineAborts(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "60")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full","retry_after_seconds":60}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := c.Solve(ctx, quickReq())
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if !strings.Contains(err.Error(), "429") {
		t.Errorf("terminal error lost the 429 cause: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d calls despite 60s advice inside a 1s budget", n)
	}
	if len(slept) != 0 {
		t.Errorf("slept %v for a doomed retry", slept)
	}
}

func TestBreakerOpensAndFailsFast(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	var transitions []string
	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{
		MaxAttempts: 2,
		Breaker: &resilience.BreakerConfig{
			ConsecutiveFailures: 3,
			OnStateChange: func(from, to resilience.State) {
				transitions = append(transitions, from.String()+">"+to.String())
			},
		},
	})

	// Two calls x two attempts = 4 failures; the breaker trips at 3.
	for i := 0; i < 2; i++ {
		if _, err := c.Solve(context.Background(), quickReq()); err == nil {
			t.Fatal("want error")
		}
	}
	before := calls.Load()
	_, err := c.Solve(context.Background(), quickReq())
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still hit the network")
	}
	if len(transitions) != 1 || transitions[0] != "closed>open" {
		t.Errorf("transitions = %v", transitions)
	}
	// Two open-rejects: the tripping call's own follow-up attempt plus
	// the whole third call.
	st := c.Stats()
	if st.BreakerOpenRejects != 2 || st.Breaker.State != "open" || st.Breaker.Opens != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMetricsExported(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write(okBody())
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{Registry: reg})
	if _, err := c.Solve(context.Background(), quickReq()); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"bcc_retry_total 1",
		"bcc_breaker_state 0",
		`bcc_client_requests_total{outcome="success"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestSolveBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve/batch" {
			t.Errorf("path = %s", r.URL.Path)
		}
		var in api.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			t.Error(err)
		}
		out := api.BatchResponse{Responses: []api.BatchItem{
			{Result: &api.SolveResponse{Status: "complete"}},
			{Error: "queue full", Code: 429, RetryAfterSeconds: 3},
		}}
		json.NewEncoder(w).Encode(&out)
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	resp, err := c.SolveBatch(context.Background(), []api.SolveRequest{*quickReq(), *quickReq()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 2 {
		t.Fatalf("responses = %+v", resp.Responses)
	}
	if resp.Responses[1].Code != 429 || resp.Responses[1].RetryAfterSeconds != 3 {
		t.Errorf("per-item shed advice lost: %+v", resp.Responses[1])
	}
	// Per-item failures must not trigger whole-batch retries.
	if len(slept) != 0 {
		t.Errorf("slept %v retrying a 200 batch", slept)
	}
}

func TestTransportErrorsAreRetryable(t *testing.T) {
	// A server that closes immediately: connection refused on every try.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	var slept []time.Duration
	c := newClient(t, url, &slept, Config{MaxAttempts: 3})
	_, err := c.Solve(context.Background(), quickReq())
	if err == nil {
		t.Fatal("want error against a dead server")
	}
	if len(slept) != 2 {
		t.Errorf("slept %v, want 2 retries against a dead server", slept)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("terminal error does not report the attempt count: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	draining := atomic.Bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"draining"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newClient(t, srv.URL, &slept, Config{})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthy server: %v", err)
	}
	draining.Store(true)
	err := c.Healthz(context.Background())
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz err = %v, want *HTTPError 503", err)
	}
}

func TestNewRejectsEmptyBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error for missing BaseURL")
	}
}

// TestCallOptsBaseURLOverride routes one call of a shared client at a
// second backend; both the request and the accounting hooks must see
// the overridden target, and the default base must be untouched after.
func TestCallOptsBaseURLOverride(t *testing.T) {
	var hitsA, hitsB atomic.Int32
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitsA.Add(1)
		w.Write(okBody())
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitsB.Add(1)
		w.Write(okBody())
	}))
	defer b.Close()

	var mu sync.Mutex
	var started, ended []string
	var slept []time.Duration
	c := newClient(t, a.URL, &slept, Config{
		OnCallStart: func(base string) {
			mu.Lock()
			started = append(started, base)
			mu.Unlock()
		},
		OnCallEnd: func(base string, elapsed time.Duration, err error) {
			mu.Lock()
			ended = append(ended, base)
			mu.Unlock()
			if elapsed < 0 {
				t.Errorf("negative elapsed %v", elapsed)
			}
			if err != nil {
				t.Errorf("hook saw error %v on a clean call", err)
			}
		},
	})

	if _, err := c.SolveOpts(context.Background(), quickReq(), &CallOpts{BaseURL: b.URL + "/"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(context.Background(), quickReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveBatchOpts(context.Background(), []api.SolveRequest{*quickReq()}, &CallOpts{BaseURL: b.URL}); err != nil {
		t.Fatal(err)
	}
	if hitsA.Load() != 1 || hitsB.Load() != 2 {
		t.Errorf("hits A=%d B=%d, want 1 and 2", hitsA.Load(), hitsB.Load())
	}
	wantTargets := []string{b.URL, a.URL, b.URL}
	mu.Lock()
	defer mu.Unlock()
	for i, want := range wantTargets {
		if started[i] != want || ended[i] != want {
			t.Errorf("call %d: hooks saw start=%q end=%q, want %q", i, started[i], ended[i], want)
		}
	}
}

// The end hook reports the terminal error so a routing tier can fold
// failures into per-backend health.
func TestCallEndHookSeesError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // dead backend: every attempt is a transport error

	var gotErr error
	var slept []time.Duration
	c := newClient(t, url, &slept, Config{
		MaxAttempts: 1,
		OnCallEnd:   func(_ string, _ time.Duration, err error) { gotErr = err },
	})
	if _, err := c.Solve(context.Background(), quickReq()); err == nil {
		t.Fatal("want error against a dead server")
	}
	if gotErr == nil {
		t.Error("OnCallEnd saw a nil error for a failed call")
	}
}

// SolveDigest posts an empty body carrying the hex digest, returns a
// 200's bytes unchanged, and takes the retry discipline of every call:
// a 412 fails at once without charging the breaker, a 503 is retried.
func TestSolveDigest(t *testing.T) {
	sum := [32]byte{0: 0xab, 31: 0x01}
	want := "ab" + strings.Repeat("00", 30) + "01"
	var codes []int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" || r.ContentLength != 0 || r.Header.Get(api.BodyDigestHeader) != want {
			t.Errorf("got %s %s, %d bytes, digest %q", r.Method, r.URL.Path, r.ContentLength, r.Header.Get(api.BodyDigestHeader))
		}
		mu.Lock()
		code := codes[0]
		codes = codes[1:]
		mu.Unlock()
		if code != http.StatusOK {
			w.WriteHeader(code)
			w.Write([]byte(`{"error": "unknown body digest"}`))
			return
		}
		w.Write(okBody())
	}))
	defer srv.Close()
	var slept []time.Duration
	var ends []error
	c := newClient(t, srv.URL, &slept, Config{OnCallEnd: func(_ string, _ time.Duration, err error) { ends = append(ends, err) }})

	codes = []int{http.StatusServiceUnavailable, http.StatusOK}
	raw, err := c.SolveDigest(context.Background(), sum, nil)
	if err != nil || string(raw) != string(okBody()) || len(slept) != 1 {
		t.Fatalf("503 then 200: %q, %v after %d sleeps; want the answer bytes after one retry", raw, err, len(slept))
	}
	codes = []int{api.StatusUnknownDigest}
	_, err = c.SolveDigest(context.Background(), sum, nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != api.StatusUnknownDigest || he.Msg != "unknown body digest" || len(slept) != 1 {
		t.Fatalf("412: %v after %d sleeps, want an *HTTPError 412 and no retry", err, len(slept))
	}
	// The unknown digest is an expected answer, not a failed call.
	st := c.Stats()
	if st.Requests != 2 || st.Successes != 1 || st.Failures != 0 || st.Breaker.ConsecutiveFailures != 0 || len(ends) != 2 {
		t.Fatalf("stats %+v, %d end hooks; want 2 calls, 1 success, no failure, an uncharged breaker and 2 hooks", st, len(ends))
	}
	// A backend that does not know the header answers the empty body
	// 400: that call failed.
	codes = []int{http.StatusBadRequest}
	if _, err = c.SolveDigest(context.Background(), sum, nil); !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("400: %v, want an *HTTPError 400", err)
	}
	if st := c.Stats(); st.Requests != 3 || st.Failures != 1 {
		t.Fatalf("stats %+v after a 400; want 3 calls and 1 failure", st)
	}
}
