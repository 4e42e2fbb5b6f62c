package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/guard"
)

// postRaw sends body to /v1/solve byte for byte.
func postRaw(t *testing.T, ts *httptest.Server, body []byte) (int, SolveResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
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
	return resp.StatusCode, out
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// A repeat is recognized by its exact bytes only: a body one space or
// one deadline apart misses the memo and takes Solve's path, which
// still finds the canonical entry.
func TestRepeatMemoNeedsExactBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8), IncludePlan: true})
	spaced := append(append([]byte{}, body...), ' ')
	deadline := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8), IncludePlan: true, DeadlineMS: 25000})

	if _, first := postRaw(t, ts, body); first.Cached {
		t.Fatal("first request claims to be cached")
	}
	_, repeat := postRaw(t, ts, body)
	if !repeat.Cached || len(repeat.Classifiers) == 0 {
		t.Fatalf("exact repeat: cached=%v with %d classifiers, want a cached answer with its plan", repeat.Cached, len(repeat.Classifiers))
	}
	if got := s.repeatAnswers.Load(); got != 1 {
		t.Fatalf("repeat answers = %d after one exact repeat, want 1", got)
	}
	for name, variant := range map[string][]byte{"added space": spaced, "other deadline_ms": deadline} {
		before := s.repeatAnswers.Load()
		code, out := postRaw(t, ts, variant)
		if code != http.StatusOK || !out.Cached {
			t.Fatalf("%s: HTTP %d cached=%v, want a canonical cache hit", name, code, out.Cached)
		}
		if got := s.repeatAnswers.Load(); got != before {
			t.Fatalf("%s: answered through the repeat memo", name)
		}
	}
	// Each variant was memoized by its own first answer.
	if _, out := postRaw(t, ts, spaced); !out.Cached || s.repeatAnswers.Load() != 2 {
		t.Fatalf("re-sent variant: cached=%v repeat answers=%d, want a memo answer", out.Cached, s.repeatAnswers.Load())
	}
	st := statz(t, ts)
	if st.Solves != 1 || st.Requests != 5 || st.RepeatAnswers != 2 || st.Cache.Hits != 4 {
		t.Fatalf("statz solves=%d requests=%d repeat_answers=%d cache hits=%d, want 1/5/2/4",
			st.Solves, st.Requests, st.RepeatAnswers, st.Cache.Hits)
	}
	if !bytes.Contains([]byte(metricsBody(t, ts)), []byte("bcc_repeat_answers_total 2")) {
		t.Error("bcc_repeat_answers_total missing or wrong in /metrics")
	}
}

// The memo never holds an answer: once the canonical entry is evicted or
// expired, a memoized body solves again and answers cached=false.
func TestRepeatMemoNeverOutlivesCanonicalEntry(t *testing.T) {
	t.Run("evicted", func(t *testing.T) {
		s, ts := newTestServer(t, Config{CacheSize: 1})
		body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8)})
		postRaw(t, ts, body)
		// A batch item stores its own canonical entry (evicting the first)
		// and leaves the repeat memo alone.
		if resp, data := postJSON(t, ts.URL+"/v1/solve/batch", BatchRequest{Requests: []SolveRequest{{Instance: quickstartFormat(9)}}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, data)
		}
		if s.repeats.Len() != 1 || s.cache.Stats().Evictions != 1 {
			t.Fatalf("setup: memo holds %d, cache evictions %d; want 1 and 1", s.repeats.Len(), s.cache.Stats().Evictions)
		}
		_, again := postRaw(t, ts, body)
		if again.Cached {
			t.Fatal("repeat answered from an evicted entry")
		}
		if st := statz(t, ts); st.Solves != 3 || st.RepeatAnswers != 0 {
			t.Fatalf("solves=%d repeat_answers=%d, want 3 and 0", st.Solves, st.RepeatAnswers)
		}
	})
	t.Run("expired", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8)})
		postRaw(t, ts, body)
		// Shorten the canonical entry's life to 20 ms; the memo entry keeps
		// its 15 minutes.
		entries := s.cache.Export()
		if len(entries) != 1 {
			t.Fatalf("setup: %d canonical entries, want 1", len(entries))
		}
		entries[0].Expires = time.Now().Add(20 * time.Millisecond)
		s.cache.Import(entries)
		time.Sleep(40 * time.Millisecond)
		_, again := postRaw(t, ts, body)
		if again.Cached {
			t.Fatal("repeat answered from an expired entry")
		}
		if st := statz(t, ts); st.Solves != 2 || st.RepeatAnswers != 0 || st.Cache.Expirations != 1 {
			t.Fatalf("solves=%d repeat_answers=%d expirations=%d, want 2, 0 and 1", st.Solves, st.RepeatAnswers, st.Cache.Expirations)
		}
	})
}

// A server restored from a snapshot answers a repeat from the restored
// entry: the first send finds it through Solve, the next through the
// memo, and neither solves.
func TestRepeatAnsweredFromRestoredSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bccsnap")
	body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8), IncludePlan: true})
	old, oldTS := newTestServer(t, Config{})
	_, want := postRaw(t, oldTS, body)
	if _, err := old.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	fresh, ts := newTestServer(t, Config{})
	if n, err := fresh.RestoreSnapshot(path); err != nil || n != 1 {
		t.Fatalf("RestoreSnapshot = %d, %v", n, err)
	}
	for i := 0; i < 2; i++ {
		_, got := postRaw(t, ts, body)
		if !got.Cached || got.Fingerprint != want.Fingerprint || !reflect.DeepEqual(got.Classifiers, want.Classifiers) {
			t.Fatalf("send %d: cached=%v fp=%s, want the restored answer %s", i, got.Cached, got.Fingerprint, want.Fingerprint)
		}
	}
	if st := statz(t, ts); st.Solves != 0 || st.RepeatAnswers != 1 {
		t.Fatalf("solves=%d repeat_answers=%d, want 0 and 1", st.Solves, st.RepeatAnswers)
	}
}

// A no_cache body is never memoized, so it never takes the repeat path.
func TestNoCacheBodyNeverMemoized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8), NoCache: true})
	for i := 0; i < 3; i++ {
		if _, out := postRaw(t, ts, body); out.Cached {
			t.Fatalf("send %d: no_cache answer claims cached", i)
		}
	}
	if n := s.repeats.Len(); n != 0 {
		t.Fatalf("repeat memo holds %d entries for a no_cache body", n)
	}
	if st := statz(t, ts); st.Solves != 3 || st.RepeatAnswers != 0 {
		t.Fatalf("solves=%d repeat_answers=%d, want 3 and 0", st.Solves, st.RepeatAnswers)
	}
}

// Under queue pressure a memoized abcc body is shed exactly as Solve
// would shed it: answered from the submod entry, algo_served=submod,
// shed_tier counted.
func TestRepeatShedAsSolveWould(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 16, ShedTierDepth: 1})
	body := mustMarshal(t, SolveRequest{Instance: quickstartFormat(8)})
	if _, calm := postRaw(t, ts, body); calm.AlgoServed != "" {
		t.Fatalf("calm answer shed: %+v", calm)
	}
	// The fast tier's entry for the same instance, which a shed answer is
	// served from.
	solve(t, ts, SolveRequest{Instance: quickstartFormat(8), Algo: "submod"})

	release := make(chan struct{})
	var once sync.Once
	guard.Arm("server.pool.dequeue", func() { <-release })
	defer func() {
		once.Do(func() { close(release) })
		guard.Disarm("server.pool.dequeue")
	}()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			solve(t, ts, SolveRequest{Instance: quickstartFormat(300 + float64(i)), Algo: "ig1"})
		}(i)
	}
	waitFor(t, func() bool { return s.pool.QueueDepth() > 1 })

	_, shed := postRaw(t, ts, body)
	once.Do(func() { close(release) })
	wg.Wait()
	if shed.Algo != "abcc" || shed.AlgoServed != "submod" || !shed.Cached {
		t.Fatalf("shed repeat: algo=%q algo_served=%q cached=%v, want abcc/submod/cached", shed.Algo, shed.AlgoServed, shed.Cached)
	}
	if st := statz(t, ts); st.ShedTier != 1 || st.RepeatAnswers != 1 {
		t.Fatalf("shed_tier=%d repeat_answers=%d, want 1 and 1", st.ShedTier, st.RepeatAnswers)
	}
}

// fuzzMaxBody caps FuzzSolveBody's bodies, so one seed can exceed it.
const fuzzMaxBody = 16 << 10

// FuzzSolveBody posts any body twice to one in-process handler. The two
// answers carry the same status code, a 4xx the same message, and a
// complete 200 the same fingerprint, plan, and utility and cost bits;
// unless the body asked for no_cache, the second says cached.
func FuzzSolveBody(f *testing.F) {
	quick := quickstartFormat(8)
	budget := 5.0
	for _, req := range []SolveRequest{
		{Instance: quick},
		{Instance: quick, IncludePlan: true},
		{Instance: quick, NoCache: true},
		{Instance: quick, Budget: &budget},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"instance": {"budget": 1, "queries": [{"props": ["a"], "utility": 1}]}, "daedline_ms": 5}`))
	f.Add([]byte(`{nope`))
	f.Add(bytes.Repeat([]byte(" "), fuzzMaxBody+1))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, Queue: 4, DefaultDeadline: 50 * time.Millisecond,
			MaxDeadline: 200 * time.Millisecond, MaxBodyBytes: fuzzMaxBody})
		defer s.Close()
		h := s.Handler()
		post := func() (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}
		code1, raw1 := post()
		code2, raw2 := post()
		if code1 != code2 {
			t.Fatalf("status %d then %d\nfirst: %s\nsecond: %s", code1, code2, raw1, raw2)
		}
		switch {
		case code1 >= 400 && code1 < 500:
			var e1, e2 Error
			if json.Unmarshal(raw1, &e1) != nil || json.Unmarshal(raw2, &e2) != nil || e1.Msg != e2.Msg {
				t.Fatalf("%d answers differ: %s then %s", code1, raw1, raw2)
			}
		case code1 == http.StatusOK:
			var r1, r2 SolveResponse
			if err := json.Unmarshal(raw1, &r1); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw2, &r2); err != nil {
				t.Fatal(err)
			}
			if r2.Fingerprint != r1.Fingerprint {
				t.Fatalf("fingerprints differ:\nfirst: %s\nsecond: %s", raw1, raw2)
			}
			if r1.Status != "complete" {
				return
			}
			var req SolveRequest
			if api.DecodeBody(body, &req) != nil {
				t.Fatalf("a body that answered 200 does not decode: %q", body)
			}
			if !req.NoCache && !r2.Cached {
				t.Fatalf("second answer not cached:\n%s", raw2)
			}
			if r2.Status != "complete" {
				return // a no_cache body solves again, and may meet its deadline
			}
			if !reflect.DeepEqual(r2.Classifiers, r1.Classifiers) ||
				math.Float64bits(r2.Utility) != math.Float64bits(r1.Utility) ||
				math.Float64bits(r2.Cost) != math.Float64bits(r1.Cost) {
				t.Fatalf("complete answers differ:\nfirst: %s\nsecond: %s", raw1, raw2)
			}
		}
	})
}
