package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// digestRequest is an empty POST /v1/solve naming a body by h, the
// value of its api.BodyDigestHeader.
func digestRequest(h string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	r.Header.Set(api.BodyDigestHeader, h)
	return r
}

// postDigest sends body's digest, not body, to /v1/solve.
func postDigest(t *testing.T, ts *httptest.Server, body []byte) (int, SolveResponse, []byte) {
	t.Helper()
	sum := sha256.Sum256(body)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.BodyDigestHeader, hex.EncodeToString(sum[:]))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp.StatusCode, out, data
}

// equalButDuration reports whether two answers agree in every field but
// duration_ms.
func equalButDuration(a, b SolveResponse) bool {
	a.DurationMS, b.DurationMS = 0, 0
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// A digest request is answered as the body's byte-identical repeat is:
// the same answer but for duration_ms, and the same counters.
func TestDigestAnsweredAsRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8), IncludePlan: true})
	postRaw(t, ts, body)
	_, repeat := postRaw(t, ts, body)
	code, byDigest, raw := postDigest(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("digest request: HTTP %d: %s", code, raw)
	}
	if !byDigest.Cached || len(byDigest.Classifiers) == 0 || !equalButDuration(byDigest, repeat) {
		t.Fatalf("digest answer %+v, want the repeat's %+v", byDigest, repeat)
	}
	st := statz(t, ts)
	if st.Solves != 1 || st.Requests != 3 || st.RepeatAnswers != 2 || st.Cache.Hits != 2 || st.BadRequests != 0 {
		t.Fatalf("statz solves=%d requests=%d repeat_answers=%d cache hits=%d bad=%d, want 1/3/2/2/0",
			st.Solves, st.Requests, st.RepeatAnswers, st.Cache.Hits, st.BadRequests)
	}
	if got := s.repeatAnswers.Load(); got != 2 {
		t.Fatalf("repeat answers = %d, want 2", got)
	}
}

// A digest the repeat memo cannot answer gets 412 and counts nothing:
// a body never seen, a no_cache body, and a body whose canonical entry
// was evicted.
func TestDigestUnknown(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	noCache := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8), NoCache: true})
	evicted := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8)})
	postRaw(t, ts, noCache)
	postRaw(t, ts, evicted)
	// A batch item stores its own canonical entry, evicting the body's,
	// and leaves the repeat memo alone.
	if resp, data := postJSON(t, ts.URL+"/v1/solve/batch", BatchRequest{Requests: []SolveRequest{{Instance: quickstartFormat(9)}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, data)
	}
	before := statz(t, ts)
	for name, body := range map[string][]byte{
		"never seen": mustMarshal(t, SolveRequest{Instance: quickstartFormat(10)}),
		"no_cache":   noCache,
		"evicted":    evicted,
	} {
		code, _, raw := postDigest(t, ts, body)
		var e Error
		if code != api.StatusUnknownDigest || json.Unmarshal(raw, &e) != nil || !strings.Contains(e.Msg, "unknown body digest") {
			t.Fatalf("%s: HTTP %d: %s, want %d unknown body digest", name, code, raw, api.StatusUnknownDigest)
		}
	}
	after := statz(t, ts)
	if after.Requests != before.Requests || after.RepeatAnswers != 0 || after.BadRequests != 0 || after.Solves != before.Solves {
		t.Fatalf("unknown digests counted: requests %d→%d, repeat answers %d, bad requests %d, solves %d→%d",
			before.Requests, after.Requests, after.RepeatAnswers, after.BadRequests, before.Solves, after.Solves)
	}
	if s.repeats.Len() != 1 {
		t.Fatalf("repeat memo holds %d entries, want the evicted body's 1", s.repeats.Len())
	}
}

// A digest header that is not 64 hex digits is a 400; on a body that is
// not empty the header is not read.
func TestDigestMalformed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8)})
	sum := sha256.Sum256(body)
	good := hex.EncodeToString(sum[:])
	postRaw(t, ts, body)
	h := s.Handler()
	for _, bad := range []string{"xyz", good[:62], good + "00", good[:63] + "g", " " + good[1:]} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, digestRequest(bad))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "malformed "+api.BodyDigestHeader) {
			t.Fatalf("digest %q: HTTP %d: %s, want 400 malformed", bad, rec.Code, rec.Body)
		}
	}
	if got := s.badRequests.Load(); got != 5 {
		t.Fatalf("bad requests = %d, want 5", got)
	}
	// The header on a body: the body's own bytes are answered, here a
	// first sight of another instance.
	other := mustMarshal(t, SolveRequest{Instance: quickstartFormat(11)})
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(other))
	r.Header.Set(api.BodyDigestHeader, good)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	var out SolveResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out.Cached || out.Utility != 11+5 {
		t.Fatalf("body with a digest header: HTTP %d: %s, want the body's own fresh answer", rec.Code, rec.Body)
	}
}

// FuzzSolveDigest posts any body twice and then its digest to one
// in-process handler. A body whose second answer is a complete 200
// without no_cache is in the canonical cache: its digest is answered
// 200, and that answer equals a full-body repeat's in every field but
// duration_ms. Every other digest is answered 412.
func FuzzSolveDigest(f *testing.F) {
	quick := quickstartFormat(8)
	budget := 5.0
	for _, req := range []SolveRequest{
		{Instance: quick},
		{Instance: quick, IncludePlan: true},
		{Instance: quick, NoCache: true},
		{Instance: quick, Budget: &budget},
		{Instance: quick, DeadlineMS: 1},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{nope`))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte(" "), fuzzMaxBody+1))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, Queue: 4, DefaultDeadline: 50 * time.Millisecond,
			MaxDeadline: 200 * time.Millisecond, MaxBodyBytes: fuzzMaxBody})
		defer s.Close()
		h := s.Handler()
		serve := func(r *http.Request) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			return rec.Code, rec.Body.Bytes()
		}
		post := func() (int, []byte) {
			return serve(httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		}
		sum := sha256.Sum256(body)
		post()
		code, raw := post()
		want := http.StatusOK
		var repeat SolveResponse
		if code != http.StatusOK || json.Unmarshal(raw, &repeat) != nil || repeat.Status != "complete" {
			want = api.StatusUnknownDigest
		} else {
			var req SolveRequest
			if api.DecodeBody(body, &req) != nil {
				t.Fatalf("a body that answered 200 does not decode: %q", body)
			}
			if req.NoCache {
				want = api.StatusUnknownDigest
			}
		}
		dcode, draw := serve(digestRequest(hex.EncodeToString(sum[:])))
		if dcode != want {
			t.Fatalf("digest answered %d, want %d: %s\nbody's repeat answered %d: %s", dcode, want, draw, code, raw)
		}
		if dcode != http.StatusOK {
			return
		}
		fcode, fraw := post()
		var byDigest, full SolveResponse
		if fcode != http.StatusOK || json.Unmarshal(draw, &byDigest) != nil || json.Unmarshal(fraw, &full) != nil {
			t.Fatalf("digest answer %s\nfull-body repeat: HTTP %d: %s", draw, fcode, fraw)
		}
		if !byDigest.Cached || !equalButDuration(byDigest, full) {
			t.Fatalf("digest and full-body repeat answers differ:\n%s\n%s", draw, fraw)
		}
	})
}
