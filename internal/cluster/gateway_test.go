package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// wireLog records the /v1/solve bodies a backend received, with their
// api.BodyDigestHeader values, and the status codes and answer bytes it
// wrote.
type wireLog struct {
	mu      sync.Mutex
	bodies  [][]byte
	digests []string
	codes   []int
	answers [][]byte
}

type teeWriter struct {
	http.ResponseWriter
	code int
	buf  bytes.Buffer
}

func (w *teeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (l *wireLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		digest := r.Header.Get(api.BodyDigestHeader)
		tw := &teeWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(tw, r)
		l.mu.Lock()
		defer l.mu.Unlock()
		l.bodies = append(l.bodies, body)
		l.digests = append(l.digests, digest)
		l.codes = append(l.codes, tw.code)
		l.answers = append(l.answers, tw.buf.Bytes())
	})
}

// postBody sends body to url's /v1/solve byte for byte.
func postBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func newGateway(t *testing.T, urls []string, cfg GatewayConfig) (*Gateway, *httptest.Server) {
	t.Helper()
	gw := NewGateway(newTestCluster(t, urls, nil), cfg)
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	return gw, gts
}

// The gateway forwards the bytes it received and relays the backend's
// answer bytes, on a first solve and on a cache hit alike; the repeat
// crosses as its SHA-256 alone.
func TestGatewayRelaysBodyAndAnswerBytes(t *testing.T) {
	srv := server.New(server.Config{BackendID: "wire"})
	var log wireLog
	ts := httptest.NewServer(log.wrap(srv.Handler()))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	_, gts := newGateway(t, []string{ts.URL}, GatewayConfig{})

	req := loadgen.SyntheticWorkload(1, 21)[0]
	req.IncludePlan = true
	body, err := json.MarshalIndent(req, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	for i := 0; i < 2; i++ {
		resp, answer := postBody(t, gts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("send %d: HTTP %d: %s", i, resp.StatusCode, answer)
		}
		log.mu.Lock()
		got, digest, sent := log.bodies[i], log.digests[i], log.answers[i]
		log.mu.Unlock()
		switch {
		case i == 0 && (!bytes.Equal(got, body) || digest != ""):
			t.Fatalf("send %d: backend received %d bytes and digest %q, want the %d sent and no digest", i, len(got), digest, len(body))
		case i == 1 && (len(got) != 0 || digest != hex.EncodeToString(sum[:])):
			t.Fatalf("send %d: backend received %d bytes and digest %q, want the body's digest alone", i, len(got), digest)
		}
		if !bytes.Equal(answer, sent) {
			t.Fatalf("send %d: gateway answered\n%s\nbackend wrote\n%s", i, answer, sent)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("send %d: Content-Type %q", i, ct)
		}
	}
}

// A backend 200 that is not JSON still fails at the gateway as a 502.
func TestGatewayMalformedAnswerIs502(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"fingerprint": "bccfp/1:x", "sta`))
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	_, gts := newGateway(t, []string{ts.URL}, GatewayConfig{})

	body, err := json.Marshal(loadgen.SyntheticWorkload(1, 22)[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp, raw := postBody(t, gts.URL, body); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("HTTP %d: %s, want 502", resp.StatusCode, raw)
	}
}

// Two encodings of one instance share a routing fingerprint: the second
// reaches the backend that solved the first and is a cache hit there.
func TestGatewayRoutesEncodingsAlike(t *testing.T) {
	_, tsA := newRealBackend(t, "enc-a")
	_, tsB := newRealBackend(t, "enc-b")
	gw, gts := newGateway(t, []string{tsA.URL, tsB.URL}, GatewayConfig{})

	reqs := loadgen.SyntheticWorkload(6, 23)
	for i := range reqs {
		compact, err := json.Marshal(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(reqs[i], "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		resp1, raw1 := postBody(t, gts.URL, compact)
		resp2, raw2 := postBody(t, gts.URL, indented)
		if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
			t.Fatalf("instance %d: HTTP %d, %d", i, resp1.StatusCode, resp2.StatusCode)
		}
		id1, id2 := resp1.Header.Get(api.BackendHeader), resp2.Header.Get(api.BackendHeader)
		if id1 != id2 {
			t.Fatalf("instance %d: encodings routed to %s and %s", i, id1, id2)
		}
		var second api.SolveResponse
		if err := json.Unmarshal(raw2, &second); err != nil {
			t.Fatal(err)
		}
		if !second.Cached {
			t.Fatalf("instance %d: second encoding missed the cache on %s: %s", i, id2, raw1)
		}
	}
	if n := gw.routes.Len(); n != 2*len(reqs) {
		t.Fatalf("route memo holds %d entries, want one per encoding (%d)", n, 2*len(reqs))
	}
}

// A body differing in one byte misses the route memo and is routed by
// decoding it; the backend's own memo misses it too, and its canonical
// cache answers.
func TestGatewayMemoNeedsExactBytes(t *testing.T) {
	srvA, tsA := newRealBackend(t, "memo-a")
	gw, gts := newGateway(t, []string{tsA.URL}, GatewayConfig{})

	req := loadgen.SyntheticWorkload(1, 24)[0]
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	req.DeadlineMS = 25000
	deadline, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	spaced := append(append([]byte{}, body...), ' ')
	for i, step := range []struct {
		body          []byte
		routes        int
		repeatAnswers uint64
	}{
		{body, 1, 0},
		{body, 1, 1},
		{spaced, 2, 1},
		{deadline, 3, 1},
		{spaced, 3, 2},
	} {
		if resp, raw := postBody(t, gts.URL, step.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
		if n := gw.routes.Len(); n != step.routes {
			t.Fatalf("step %d: route memo holds %d entries, want %d", i, n, step.routes)
		}
		if n := srvA.Statz().RepeatAnswers; n != step.repeatAnswers {
			t.Fatalf("step %d: backend repeat answers %d, want %d", i, n, step.repeatAnswers)
		}
	}
	if st := srvA.Statz(); st.Solves != 1 {
		t.Fatalf("backend solved %d times, want once", st.Solves)
	}
}

// An oversized body is refused at the gateway with the status and
// message the backend gives it.
func TestGatewayOversizedBody413(t *testing.T) {
	const limit = 256
	srv := server.New(server.Config{MaxBodyBytes: limit, BackendID: "big"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	_, gts := newGateway(t, []string{ts.URL}, GatewayConfig{MaxBodyBytes: limit})

	req := loadgen.SyntheticWorkload(1, 25)[0]
	for i := 0; i < 20; i++ {
		req.Instance.Queries = append(req.Instance.Queries, dataset.FileQuery{Props: []string{fmt.Sprintf("p%d", i)}, Utility: 1})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	gresp, graw := postBody(t, gts.URL, body)
	bresp, braw := postBody(t, ts.URL, body)
	if gresp.StatusCode != http.StatusRequestEntityTooLarge || bresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gateway HTTP %d, backend HTTP %d, want 413 from both", gresp.StatusCode, bresp.StatusCode)
	}
	if !bytes.Equal(graw, braw) {
		t.Fatalf("gateway answered %s, backend %s", graw, braw)
	}
	if st := srv.Statz(); st.BadRequests != 1 {
		t.Fatalf("backend saw %d bad requests, want only its own direct one", st.BadRequests)
	}
}

// An invalid body is never memoized: sent N times, it is answered 400 at
// the edge N times and no backend is called.
func TestGatewayInvalidBodyNeverReachesBackend(t *testing.T) {
	srvA, tsA := newRealBackend(t, "bad-a")
	srvB, tsB := newRealBackend(t, "bad-b")
	gw, gts := newGateway(t, []string{tsA.URL, tsB.URL}, GatewayConfig{})

	req := loadgen.SyntheticWorkload(1, 26)[0]
	req.Instance.Costs[0].Cost = -1
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const sends = 3
	for i := 0; i < sends; i++ {
		resp, raw := postBody(t, gts.URL, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "invalid instance") {
			t.Fatalf("send %d: HTTP %d: %s, want 400 invalid instance", i, resp.StatusCode, raw)
		}
	}
	for _, srv := range []*server.Server{srvA, srvB} {
		if st := srv.Statz(); st.Requests != 0 || st.BadRequests != 0 {
			t.Fatalf("backend %s saw requests=%d bad_requests=%d, want none", st.BackendID, st.Requests, st.BadRequests)
		}
	}
	for _, b := range gw.Cluster().Stats().Backends {
		if b.Requests != 0 {
			t.Fatalf("gateway called %s %d times", b.URL, b.Requests)
		}
	}
	if n := gw.routes.Len(); n != 0 {
		t.Fatalf("route memo holds %d entries for an invalid body", n)
	}
	if got := gw.badRequests.Load(); got != sends {
		t.Fatalf("gateway bad requests = %d, want %d", got, sends)
	}
}

// Bytes after the request's JSON value are a 400 at the edge: the
// gateway no longer routes the first value and drops the rest.
func TestGatewayTrailingBytes400(t *testing.T) {
	srv, ts := newRealBackend(t, "tail")
	_, gts := newGateway(t, []string{ts.URL}, GatewayConfig{})
	value, err := json.Marshal(api.SolveRequest{Instance: loadgen.SyntheticWorkload(1, 26)[0].Instance, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postBody(t, gts.URL, append(value, []byte(`{"algo":"gmc3"} trailing garbage`)...))
	var e api.Error
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil ||
		!strings.HasPrefix(e.Msg, "decoding request: ") {
		t.Fatalf("HTTP %d %s, want 400 decoding request", resp.StatusCode, raw)
	}
	if st := srv.Statz(); st.Requests != 0 {
		t.Fatalf("backend saw %d requests", st.Requests)
	}
}

// A panicking gateway handler answers a JSON 500 and counts in both the
// panic counter and the 500 series of the request counter.
func TestGatewayHandlerPanicIsJSON500(t *testing.T) {
	_, ts := newRealBackend(t, "panic")
	gw, gts := newGateway(t, []string{ts.URL}, GatewayConfig{})
	rec := httptest.NewRecorder()
	gw.http.Instrument("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })(
		rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	var e api.Error
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
		e.Msg != "internal panic: boom" {
		t.Fatalf("HTTP %d %s, want a JSON 500 naming the panic", rec.Code, rec.Body.Bytes())
	}
	resp, err := http.Get(gts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bcc_gate_panics_recovered_total 1\n",
		`bcc_gate_http_requests_total{code="500",route="/boom"} 1` + "\n",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
