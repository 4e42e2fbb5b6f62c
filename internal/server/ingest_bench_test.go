package server

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/incr"
	"repro/internal/propset"
)

var (
	driftBodyOnce sync.Once
	driftBodyRaw  []byte
	driftBodyErr  error
)

// driftBody is a /v1/solve body shaped like bccperf serve-drift's: a
// Private-like instance (4,998 queries) with its own A^BCC plan as
// warm_plan, about 440 KB of JSON.
func driftBody(b *testing.B) []byte {
	driftBodyOnce.Do(func() {
		ff := dataset.ToFormat(dataset.Private(12345, 1000))
		s := New(Config{Workers: 1})
		defer s.Close()
		resp, apiErr := s.Solve(context.Background(), &SolveRequest{Instance: ff, IncludePlan: true, NoCache: true})
		if apiErr != nil {
			driftBodyErr = apiErr
			return
		}
		warm := make([][]string, len(resp.Classifiers))
		for i, c := range resp.Classifiers {
			warm[i] = c.Props
		}
		driftBodyRaw, driftBodyErr = json.Marshal(SolveRequest{Instance: ff, Algo: "abcc", Seed: 7, IncludePlan: true, WarmPlan: warm})
	})
	if driftBodyErr != nil {
		b.Fatal(driftBodyErr)
	}
	return driftBodyRaw
}

// BenchmarkIngest times each stage that turns a first-seen /v1/solve
// body into an instance and its fingerprints, which the gateway and the
// backend each run once per such body, and the repair of the body's warm
// plan, which the backend runs before a warm solve. fingerprints times
// both hashes from the one pass the backend makes for them.
//
//	go test -run '^$' -bench Ingest -benchmem ./internal/server/
func BenchmarkIngest(b *testing.B) {
	body := driftBody(b)
	var req SolveRequest
	if apiErr := api.DecodeBody(body, &req); apiErr != nil {
		b.Fatal(apiErr)
	}
	in, err := dataset.FromFormat(req.Instance)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("body %d bytes: %d queries, %d classifiers, %d cost rows, %d warm sets",
		len(body), in.NumQueries(), len(in.Classifiers()), len(req.Instance.Costs), len(req.WarmPlan))
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r SolveRequest
			if apiErr := api.DecodeBody(body, &r); apiErr != nil {
				b.Fatal(apiErr)
			}
		}
	})
	b.Run("fromformat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dataset.FromFormat(req.Instance); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = in.Fingerprint()
		}
	})
	b.Run("fingerprint2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = in.Fingerprint2()
		}
	})
	b.Run("fingerprints", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, benchSink2 = in.Fingerprints()
		}
	})
	b.Run("repair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSets = incr.Repair(in, req.WarmPlan)
		}
	})
}

var (
	benchSink, benchSink2 string
	benchSets             []propset.Set
)
