// Ablation benchmarks for the design choices DESIGN.md calls out: each
// switches off (or swaps) one component of A^BCC or its QK substrate and
// reports the utility impact alongside the timing, over a fixed Private
// workload snapshot.
//
//	go test -bench=Ablation -benchmem
package bcc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/qk"
	"repro/internal/wgraph"
)

func BenchmarkAblationFullPipeline(b *testing.B) {
	in := dataset.Private(1, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.Solve(in, core.Options{Seed: 1})
		b.ReportMetric(res.Utility, "utility")
	}
}

func BenchmarkAblationNoMC3(b *testing.B) {
	in := dataset.Private(1, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.Solve(in, core.Options{Seed: 1, DisableMC3: true})
		b.ReportMetric(res.Utility, "utility")
	}
}

func BenchmarkAblationNoPruning(b *testing.B) {
	in := dataset.Private(1, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.Solve(in, core.Options{Seed: 1, DisablePruning: true})
		b.ReportMetric(res.Utility, "utility")
	}
}

func BenchmarkAblationNoGreedyFloor(b *testing.B) {
	in := dataset.Private(1, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.Solve(in, core.Options{Seed: 1, DisableGreedyFloor: true})
		b.ReportMetric(res.Utility, "utility")
	}
}

// QK-level ablations on a shared graph snapshot.

func ablationQKGraph() *wgraph.Graph {
	// Deterministic mid-sized QK instance resembling the BCC(2) graphs the
	// Private workload produces.
	g := wgraph.New(400)
	h := int64(12345)
	next := func(mod int64) int64 {
		h = h*6364136223846793005 + 1442695040888963407
		v := (h >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	for v := 0; v < 400; v++ {
		g.SetCost(v, float64(1+next(20)))
	}
	for i := 0; i < 2400; i++ {
		u, v := int(next(400)), int(next(400))
		if u != v {
			g.AddEdgeMerged(u, v, float64(1+next(30)))
		}
	}
	return g
}

func BenchmarkAblationQKHeuristic(b *testing.B) {
	g := ablationQKGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := qk.SolveHeuristic(g, 300, qk.Options{Seed: 1})
		b.ReportMetric(res.Weight, "weight")
	}
}

func BenchmarkAblationQKGreedy(b *testing.B) {
	g := ablationQKGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := qk.SolveGreedy(g, 300)
		b.ReportMetric(res.Weight, "weight")
	}
}
