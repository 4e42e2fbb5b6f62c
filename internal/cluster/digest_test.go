package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/guard"
	"repro/internal/loadgen"
	"repro/internal/resilience"
	"repro/internal/server"
)

// wiredBackend is a backend server behind a wireLog. Its handler can be
// replaced, which is how a test restarts it on the same URL.
type wiredBackend struct {
	srv *server.Server
	log *wireLog
	url string
	h   atomic.Value // http.Handler
}

// startWired starts a backend with cfg. wrap, when non-nil, sits between
// the wire log and the server.
func startWired(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) *wiredBackend {
	t.Helper()
	b := &wiredBackend{srv: server.New(cfg), log: &wireLog{}}
	var h http.Handler = b.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	b.h.Store(h)
	ts := httptest.NewServer(b.log.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.h.Load().(http.Handler).ServeHTTP(w, r)
	})))
	t.Cleanup(func() {
		ts.Close()
		b.srv.Close()
	})
	b.url = ts.URL
	return b
}

// restart swaps in a fresh server with cfg on the same URL: a backend
// process that came back without a snapshot.
func (b *wiredBackend) restart(t *testing.T, cfg server.Config) {
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	b.h.Store(srv.Handler())
}

// calls returns how many /v1/solve requests the backend received.
func (b *wiredBackend) calls() int {
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	return len(b.log.bodies)
}

// call returns the i-th /v1/solve request's body length, digest header
// and answer status.
func (b *wiredBackend) call(i int) (int, string, int) {
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	return len(b.log.bodies[i]), b.log.digests[i], b.log.codes[i]
}

func digestBody(t *testing.T, seed int64, noCache bool) []byte {
	t.Helper()
	req := loadgen.SyntheticWorkload(1, seed)[0]
	req.IncludePlan = true
	req.NoCache = noCache
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// solveOK posts body to url's /v1/solve and decodes a 200 answer.
func solveOK(t *testing.T, url string, body []byte) (api.SolveResponse, string) {
	t.Helper()
	resp, raw := postBody(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	var out api.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return out, resp.Header.Get(api.BackendHeader)
}

// sameButDuration fails unless a and b agree in every field but
// duration_ms.
func sameButDuration(t *testing.T, what string, a, b api.SolveResponse) {
	t.Helper()
	a.DurationMS, b.DurationMS = 0, 0
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("%s differ beyond duration_ms:\n%s\n%s", what, ja, jb)
	}
}

// A repeat crosses to its owner as its digest, and the answer is the
// one a full-body repeat gets, in every field but duration_ms.
func TestDigestForwardAnswersRepeat(t *testing.T) {
	be := startWired(t, server.Config{BackendID: "digest"}, nil)
	gw, gts := newGateway(t, []string{be.url}, GatewayConfig{})
	body := digestBody(t, 31, false)

	first, _ := solveOK(t, gts.URL, body)
	byDigest, _ := solveOK(t, gts.URL, body)
	direct, _ := solveOK(t, be.url, body)
	if first.Cached || !byDigest.Cached || len(byDigest.Classifiers) == 0 {
		t.Fatalf("first cached=%v, repeat cached=%v with %d classifiers; want a fresh solve, then a cached plan",
			first.Cached, byDigest.Cached, len(byDigest.Classifiers))
	}
	sameButDuration(t, "digest answer and full-body repeat answer", byDigest, direct)

	if n := be.calls(); n != 3 {
		t.Fatalf("backend received %d solve requests, want 3", n)
	}
	if n, digest, code := be.call(1); n != 0 || len(digest) != 64 || code != http.StatusOK {
		t.Fatalf("repeat crossed as %d bytes, digest %q, answered %d; want the digest alone, answered 200", n, digest, code)
	}
	st := gw.Cluster().Stats()
	if st.DigestAnswers != 1 || st.DigestFallbacks != 0 || st.Failovers != 0 {
		t.Fatalf("digest answers %d, fallbacks %d, failovers %d; want 1, 0, 0", st.DigestAnswers, st.DigestFallbacks, st.Failovers)
	}
	if bst := be.srv.Statz(); bst.Solves != 1 || bst.RepeatAnswers != 2 || bst.Requests != 3 {
		t.Fatalf("backend solves %d, repeat answers %d, requests %d; want 1, 2, 3", bst.Solves, bst.RepeatAnswers, bst.Requests)
	}
	_, metrics := gatewayJSON(t, http.MethodGet, gts.URL+"/metrics", nil)
	for _, line := range []string{"bcc_gate_digest_answers_total 1", "bcc_gate_digest_fallbacks_total 0"} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// Every digest request the owner cannot answer ends with the answer
// the body itself gets, after one resend of the body to the same
// backend. It counts as a fallback, not as a failover, and it charges
// no backend with a failure.
func TestDigestFallbacks(t *testing.T) {
	stripDigest := func(h http.Handler) http.Handler {
		// A backend built before digest requests: it decodes the empty
		// body and answers 400.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del(api.BodyDigestHeader)
			h.ServeHTTP(w, r)
		})
	}
	for _, c := range []struct {
		name     string
		cfg      server.Config
		wrap     func(http.Handler) http.Handler
		between  func(t *testing.T, gw *Gateway, bes []*wiredBackend, owner int)
		wantCode int  // the digest request's answer
		cached   bool // whether the resent body is answered from the cache
	}{
		{
			name: "unknown digest",
			between: func(t *testing.T, _ *Gateway, bes []*wiredBackend, owner int) {
				bes[owner].restart(t, server.Config{BackendID: "restarted"})
			},
			wantCode: api.StatusUnknownDigest,
		},
		{
			name: "entry evicted",
			cfg:  server.Config{CacheSize: 1},
			between: func(t *testing.T, _ *Gateway, bes []*wiredBackend, owner int) {
				// A batch item stores its own entry, evicting the body's,
				// and leaves the repeat memo alone.
				other := loadgen.SyntheticWorkload(1, 32)[0]
				raw, _ := json.Marshal(api.BatchRequest{Requests: []api.SolveRequest{other}})
				resp, err := http.Post(bes[owner].url+"/v1/solve/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if ev := bes[owner].srv.Cache().Stats().Evictions; ev != 1 {
					t.Fatalf("setup: %d evictions, want 1", ev)
				}
			},
			wantCode: api.StatusUnknownDigest,
		},
		{
			name: "entry expired",
			between: func(t *testing.T, _ *Gateway, bes []*wiredBackend, owner int) {
				cache := bes[owner].srv.Cache()
				entries := cache.Export()
				if len(entries) != 1 {
					t.Fatalf("setup: %d cache entries, want 1", len(entries))
				}
				entries[0].Expires = time.Now().Add(20 * time.Millisecond)
				cache.Import(entries)
				time.Sleep(40 * time.Millisecond)
			},
			wantCode: api.StatusUnknownDigest,
		},
		{
			name: "new owner",
			between: func(t *testing.T, gw *Gateway, bes []*wiredBackend, owner int) {
				if err := gw.Cluster().SetBackends([]string{bes[1-owner].url}); err != nil {
					t.Fatal(err)
				}
			},
			wantCode: api.StatusUnknownDigest,
		},
		{
			name:     "older backend",
			wrap:     stripDigest,
			between:  func(*testing.T, *Gateway, []*wiredBackend, int) {},
			wantCode: http.StatusBadRequest,
			cached:   true,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var bes []*wiredBackend
			var urls []string
			for _, id := range []string{"fb-a", "fb-b"} {
				cfg := c.cfg
				cfg.BackendID = id
				be := startWired(t, cfg, c.wrap)
				bes = append(bes, be)
				urls = append(urls, be.url)
			}
			gw, gts := newGateway(t, urls, GatewayConfig{})
			body := digestBody(t, 33, false)
			first, id := solveOK(t, gts.URL, body)
			owner := 0
			if id == "fb-b" {
				owner = 1
			}
			c.between(t, gw, bes, owner)

			again, _ := solveOK(t, gts.URL, body)
			if again.Cached != c.cached || again.Fingerprint != first.Fingerprint || again.Utility != first.Utility {
				t.Fatalf("resend: cached=%v fp=%s utility=%v; want cached=%v and the first answer's %s, %v",
					again.Cached, again.Fingerprint, again.Utility, c.cached, first.Fingerprint, first.Utility)
			}
			// The backend that got the digest request got the body next,
			// and nothing else.
			to := bes[owner]
			if c.name == "new owner" {
				to = bes[1-owner]
			}
			n := to.calls()
			if n < 2 {
				t.Fatalf("backend received %d solve requests, want the digest request and the body", n)
			}
			if size, digest, code := to.call(n - 2); size != 0 || digest == "" || code != c.wantCode {
				t.Fatalf("digest request: %d bytes, digest %q, answered %d; want 0 bytes, a digest, %d", size, digest, code, c.wantCode)
			}
			if size, digest, code := to.call(n - 1); size != len(body) || digest != "" || code != http.StatusOK {
				t.Fatalf("resend: %d bytes, digest %q, answered %d; want the %d-byte body, answered 200", size, digest, code, len(body))
			}
			if total := bes[0].calls() + bes[1].calls(); total != 3 {
				t.Fatalf("backends received %d solve requests in all, want 3", total)
			}
			st := gw.Cluster().Stats()
			if st.DigestFallbacks != 1 || st.DigestAnswers != 0 || st.Failovers != 0 {
				t.Fatalf("digest fallbacks %d, answers %d, failovers %d; want 1, 0, 0", st.DigestFallbacks, st.DigestAnswers, st.Failovers)
			}
			for _, b := range st.Backends {
				if b.Failures != 0 || b.Breaker.WindowFailures != 0 || b.Breaker.ConsecutiveFailures != 0 {
					t.Fatalf("backend %s charged: %d failures, breaker %+v", b.URL, b.Failures, b.Breaker)
				}
			}
		})
	}
}

// A backend caches only complete answers. After a digest request is
// followed by an answer it did not cache, the body's later repeats
// cross whole, without another empty round trip first.
func TestDigestDroppedAfterUncachedAnswer(t *testing.T) {
	be := startWired(t, server.Config{BackendID: "deadline"}, nil)
	gw, gts := newGateway(t, []string{be.url}, GatewayConfig{})
	// Every solve starts past its deadline and answers status=deadline.
	guard.Arm("server.pool.dequeue", guard.DelayFault(40*time.Millisecond))
	defer guard.DisarmAll()
	req := loadgen.SyntheticWorkload(1, 36)[0]
	req.IncludePlan = true
	req.DeadlineMS = 10
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if out, _ := solveOK(t, gts.URL, body); out.Status != guard.DeadlineExceeded.String() || out.Cached {
			t.Fatalf("send %d: status %s, cached %v; want an uncached deadline answer", i, out.Status, out.Cached)
		}
	}
	// The first send, the repeat's digest request and its resend, then
	// the third send whole.
	if n := be.calls(); n != 4 {
		t.Fatalf("backend received %d solve requests, want 4", n)
	}
	for i, wantDigest := range []bool{false, true, false, false} {
		if size, digest, _ := be.call(i); (digest != "") != wantDigest || (size == 0) != wantDigest {
			t.Fatalf("request %d crossed as %d bytes with digest %q; want by digest: %v", i, size, digest, wantDigest)
		}
	}
	if st := gw.Cluster().Stats(); st.DigestAnswers != 0 || st.DigestFallbacks != 1 {
		t.Fatalf("digest answers %d, fallbacks %d; want 0, 1", st.DigestAnswers, st.DigestFallbacks)
	}
}

// A resend answered complete is cached and memoized by the owner, so
// after a fallback, as when the owner restarted, the next repeat goes
// by digest again.
func TestDigestKeptAfterCompleteResend(t *testing.T) {
	be := startWired(t, server.Config{BackendID: "kept"}, nil)
	gw, gts := newGateway(t, []string{be.url}, GatewayConfig{})
	body := digestBody(t, 37, false)
	solveOK(t, gts.URL, body)
	be.restart(t, server.Config{BackendID: "kept-restarted"})
	for i := 1; i <= 2; i++ {
		if out, _ := solveOK(t, gts.URL, body); out.Status != guard.Complete.String() {
			t.Fatalf("send %d: status %s, want complete", i, out.Status)
		}
	}
	// The first send; the repeat's digest request (412) and its resend;
	// the next repeat by digest (200).
	for i, want := range []struct {
		digest bool
		code   int
	}{{false, http.StatusOK}, {true, api.StatusUnknownDigest}, {false, http.StatusOK}, {true, http.StatusOK}} {
		if size, digest, code := be.call(i); (digest != "") != want.digest || (size == 0) != want.digest || code != want.code {
			t.Fatalf("request %d crossed as %d bytes with digest %q, answered %d; want by digest: %v, answered %d",
				i, size, digest, code, want.digest, want.code)
		}
	}
	if st := gw.Cluster().Stats(); st.DigestAnswers != 1 || st.DigestFallbacks != 1 {
		t.Fatalf("digest answers %d, fallbacks %d; want 1, 1", st.DigestAnswers, st.DigestFallbacks)
	}
}

// A no_cache body is never in a backend's repeat memo, so it always
// crosses whole.
func TestDigestNeverForNoCache(t *testing.T) {
	be := startWired(t, server.Config{BackendID: "nocache"}, nil)
	gw, gts := newGateway(t, []string{be.url}, GatewayConfig{})
	body := digestBody(t, 34, true)
	for i := 0; i < 3; i++ {
		if out, _ := solveOK(t, gts.URL, body); out.Cached {
			t.Fatalf("send %d: no_cache answer claims cached", i)
		}
		if size, digest, _ := be.call(i); size != len(body) || digest != "" {
			t.Fatalf("send %d crossed as %d bytes with digest %q, want the %d-byte body", i, size, digest, len(body))
		}
	}
	if st := gw.Cluster().Stats(); st.DigestAnswers != 0 || st.DigestFallbacks != 0 {
		t.Fatalf("digest answers %d, fallbacks %d; want none", st.DigestAnswers, st.DigestFallbacks)
	}
}

// A primary whose breaker is not closed gets the body itself, so a
// half-open breaker's probe is the body's own call; no digest request
// is sent or counted until the breaker has closed again.
func TestDigestOnlyWhileBreakerClosed(t *testing.T) {
	be := startWired(t, server.Config{BackendID: "probe"}, nil)
	c := newTestCluster(t, []string{be.url}, func(cfg *Config) {
		cfg.Breaker = &resilience.BreakerConfig{ConsecutiveFailures: 1, Cooldown: time.Millisecond}
	})
	gts := httptest.NewServer(NewGateway(c, GatewayConfig{}).Handler())
	t.Cleanup(gts.Close)
	body := digestBody(t, 35, false)
	solveOK(t, gts.URL, body)

	c.members.Load().list[0].breaker.Record(false)
	time.Sleep(5 * time.Millisecond) // past the cooldown: the next call is a probe
	// Two probe successes close the breaker (HalfOpenSuccesses' default);
	// the repeat after them goes by digest.
	for i := 1; i <= 3; i++ {
		if out, _ := solveOK(t, gts.URL, body); !out.Cached {
			t.Fatalf("send %d: not answered from the cache", i)
		}
	}
	for i, wantDigest := range []bool{false, false, false, true} {
		size, digest, _ := be.call(i)
		if got := digest != ""; got != wantDigest || (size == 0) != wantDigest {
			t.Fatalf("send %d crossed as %d bytes with digest %q; want by digest: %v", i, size, digest, wantDigest)
		}
	}
	if st := c.Stats(); st.DigestAnswers != 1 || st.DigestFallbacks != 0 {
		t.Fatalf("digest answers %d, fallbacks %d; want 1, 0", st.DigestAnswers, st.DigestFallbacks)
	}
}
