package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/incr"
	"repro/internal/model"
)

// perLayerDefs lists every per-layer metric a traced run prints, with
// its unit. BENCHMARK.json's per_layer list matches it (bench_test.go).
var perLayerDefs = []struct{ name, unit string }{
	{"cluster.gateway_self_ms", "ms"},
	{"cluster.call_self_ms", "ms"},
	{"cluster.route_fp_ms", "ms"},
	{"cluster.affinity_ratio", "ratio"},
	{"cluster.backend_calls_per_op", "count"},
	{"cluster.hedges_per_op", "count"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"server.http_self_ms", "ms"},
	{"server.solve_path_ms", "ms"},
	{"server.rejected_per_op", "count"},
	{"dataset.fromformat_ms", "ms"},
	{"model.fingerprint_ms", "ms"},
	{"model.fingerprint2_ms", "ms"},
	{"api.request_kb", "KB"},
	{"api.response_kb", "KB"},
	{"api.response_encode_ms", "ms"},
	{"solvecache.hit_ratio", "ratio"},
	{"solvecache.stores_per_op", "count"},
	{"incr.warm_ratio", "ratio"},
	{"incr.repair_ms", "ms"},
	{"incr.repair_kept_ratio", "ratio"},
	{"incr.floor_ms", "ms"},
	{"incr.floor_fallbacks_per_op", "count"},
	{"incr.warm_solve_ms.cut", "ms"},
	{"incr.warm_solve_ms.raise2", "ms"},
	{"incr.warm_solve_ms.raise10", "ms"},
	{"incr.cold_solve_ms.cut", "ms"},
	{"incr.cold_solve_ms.raise2", "ms"},
	{"incr.cold_solve_ms.raise10", "ms"},
	{"core.solve_ms", "ms"},
	{"core.parallelism", "ratio"},
	{"core.prune_ms", "ms"},
	{"knapsack.knapsack_ms", "ms"},
	{"qk.qk_ms", "ms"},
	{"qk.restart_work_ms", "ms"},
	{"mc3.mc3_ms", "ms"},
	{"core.residual_round_ms", "ms"},
	{"core.greedy_floor_ms", "ms"},
	{"core.residual_rounds_per_op", "count"},
	{"qk.calls_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"client.retries_per_op", "count"},
	{"gen.client_self_ms", "ms"},
	{"gen.send_lag_ms", "ms"},
	{"env.steal_share", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// standaloneResult holds layer timings taken after the traced load, on
// the same request bodies, one call at a time.
type standaloneResult struct {
	fromFormat, fingerprint, fingerprint2, routeFP, encode []float64
	repair, kept, floor                                    []float64
	warm, cold                                             map[string][]float64
	solveWall, solveCPU                                    time.Duration
}

// standaloneReps repeats each cheap standalone call; the median is kept.
const standaloneReps = 3

// driftSamples is how many requests per drift class are solved
// standalone, warm and cold.
const driftSamples = 2

func timeOnce(fn func()) float64 {
	t0 := time.Now()
	fn()
	return ms(time.Since(t0))
}

func timeMedian(fn func()) float64 {
	var xs []float64
	for i := 0; i < standaloneReps; i++ {
		xs = append(xs, timeOnce(fn))
	}
	return median(xs)
}

// timeStandalone times dataset.FromFormat, the fingerprints,
// cluster.RouteFingerprints, the response encode and, on serve-drift,
// incr.Repair, incr.Floor and warm and cold A^BCC solves per class.
func timeStandalone(st *state, p *pass) *standaloneResult {
	sa := &standaloneResult{warm: map[string][]float64{}, cold: map[string][]float64{}}
	if st.srv == nil {
		return sa
	}
	answer := map[int]*api.SolveResponse{}
	for i, o := range p.ops {
		if p.resp[i] != nil && answer[o.req] == nil {
			answer[o.req] = p.resp[i]
		}
	}
	perClass := map[string]int{}
	d, _ := algo.Lookup("abcc")
	for ri, raw := range st.srv.bodies {
		cls := st.in.reqs[ri].class
		if p.w.name == serveDrift && perClass[cls] >= driftSamples {
			continue
		}
		perClass[cls]++
		var req api.SolveRequest
		if json.Unmarshal(raw, &req) != nil {
			continue
		}
		var in *model.Instance
		sa.fromFormat = append(sa.fromFormat, timeMedian(func() { in, _ = dataset.FromFormat(req.Instance) }))
		if in == nil {
			continue
		}
		sa.fingerprint = append(sa.fingerprint, timeMedian(func() { in.Fingerprint() }))
		sa.fingerprint2 = append(sa.fingerprint2, timeMedian(func() { in.Fingerprint2() }))
		sa.routeFP = append(sa.routeFP, timeMedian(func() { _, _, _ = cluster.RouteFingerprints(&req) }))
		if resp := answer[ri]; resp != nil {
			sa.encode = append(sa.encode, timeMedian(func() {
				enc := json.NewEncoder(io.Discard)
				enc.SetIndent("", "  ") // as the server and gateway write it
				_ = enc.Encode(resp)
			}))
		}
		if p.w.name != serveDrift {
			continue
		}
		warm := incr.Repair(in, req.WarmPlan)
		sa.repair = append(sa.repair, timeMedian(func() { incr.Repair(in, req.WarmPlan) }))
		sa.kept = append(sa.kept, ratio(float64(len(warm)), float64(len(req.WarmPlan))))
		sa.floor = append(sa.floor, timeMedian(func() { incr.Floor(in) }))
		cpu0, t0 := processCPU(), time.Now()
		_, _ = d.Run(context.Background(), in, algo.Params{Seed: solverSeed, Warm: warm})
		wall := time.Since(t0)
		sa.solveWall += wall
		sa.solveCPU += processCPU() - cpu0
		sa.warm[cls] = append(sa.warm[cls], ms(wall))
		sa.cold[cls] = append(sa.cold[cls], timeOnce(func() { _, _ = d.Run(context.Background(), in, algo.Params{Seed: solverSeed}) }))
	}
	return sa
}

// notMeasured says why a per-layer metric has no value on a workload.
func notMeasured(w workload, name string) string {
	switch {
	case w.name == solveCold:
		return "solve-cold calls the solver directly; no HTTP, cache or warm path runs"
	case w.name == serveHot && (name == "core.solve_ms" || name == "core.parallelism" || strings.HasPrefix(name, "incr.")):
		return "every serve-hot request is a cache hit; no solve, repair or floor runs"
	}
	return "no operation of this workload reached the layer"
}

// perLayer computes every per-layer metric from the untraced pass
// (runtime counters), the traced pass (spans, recorder stages, service
// counters) and the standalone timings.
func perLayer(w workload, plain, tp *pass, sa *standaloneResult) (map[string]metric, map[string]string) {
	v := map[string]float64{}
	ops := float64(len(tp.lat))

	var wallSelf [numLayers][]float64
	for _, spans := range byOp(tp.spans) {
		if root, wall, _ := selfTimes(spans); root != nil {
			for l := range wall {
				wallSelf[l] = append(wallSelf[l], float64(wall[l])/1e6)
			}
		}
	}
	stages := stageTotals(tp.spans)
	stageMS := func(name string) float64 { return ms(stages[name].Total) / ops }
	v["core.prune_ms"] = stageMS("prune")
	v["knapsack.knapsack_ms"] = stageMS("knapsack")
	v["qk.qk_ms"] = stageMS("qk")
	v["qk.restart_work_ms"] = stageMS("qk_restart")
	v["mc3.mc3_ms"] = stageMS("mc3")
	v["core.residual_round_ms"] = stageMS("residual_round")
	v["core.greedy_floor_ms"] = stageMS("greedy_floor")
	v["core.residual_rounds_per_op"] = float64(stages["residual_round"].Calls) / ops
	v["qk.calls_per_op"] = float64(stages["qk"].Calls) / ops

	pOps := float64(len(plain.lat))
	rt0, rt1 := plain.win.rt0, plain.win.rt1
	v["runtime.alloc_mb_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / pOps / (1 << 20)
	v["runtime.mallocs_per_op"] = float64(rt1.allocObjects-rt0.allocObjects) / pOps
	v["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, plain.win.cpu().Seconds())
	v["env.steal_share"] = tp.win.steal()
	v["trace.overhead_ms"] = median(tp.lat) - median(plain.lat)

	switch w.name {
	case solveCold:
		var wall, cpu time.Duration
		for _, r := range tp.cold {
			wall += r.done - r.start
			cpu += r.cpu
		}
		v["core.solve_ms"] = ms(wall) / ops
		v["core.parallelism"] = ratio(cpu.Seconds(), wall.Seconds())
		v["gen.client_self_ms"] = median(wallSelf[layerGen])
	default:
		servingLayers(v, w, tp, sa, wallSelf)
	}

	out := map[string]metric{}
	notes := map[string]string{}
	for _, d := range perLayerDefs {
		val, ok := v[d.name]
		if !ok {
			notes[d.name] = notMeasured(w, d.name)
		}
		out[d.name] = metric{val, d.unit}
	}
	return out, notes
}

func servingLayers(v map[string]float64, w workload, tp *pass, sa *standaloneResult, wallSelf [numLayers][]float64) {
	ops := float64(len(tp.lat))
	v["gen.client_self_ms"] = median(wallSelf[layerGen])
	v["cluster.gateway_self_ms"] = median(wallSelf[layerGateway])
	v["cluster.call_self_ms"] = median(wallSelf[layerCall])
	solveOf := map[int64]*span{}
	for _, s := range tp.spans {
		if s.layer == layerSolve {
			solveOf[s.Parent] = s
		}
	}
	var httpSelf, solvePath []float64
	for _, s := range tp.spans {
		if c := solveOf[s.ID]; c != nil && s.layer == layerBackend {
			httpSelf = append(httpSelf, float64(s.dur()-c.dur())/1e6)
			solvePath = append(solvePath, float64(c.dur())/1e6)
		}
	}
	v["server.http_self_ms"] = median(httpSelf)
	v["server.solve_path_ms"] = median(solvePath)

	c := tp.counters()
	n := func(k string) float64 { return float64(c[k]) }
	hedges := n("gateway_hedges")
	v["cluster.affinity_ratio"] = ratio(n("gateway_affinity_picks"), n("gateway_affinity_picks")+n("gateway_fallback_picks"))
	v["cluster.backend_calls_per_op"] = n("backend_requests") / ops
	v["cluster.hedges_per_op"] = hedges / ops
	v["cluster.hedge_win_ratio"] = ratio(n("gateway_hedge_wins"), hedges)
	v["client.retries_per_op"] = n("gateway_retries") / ops
	v["server.rejected_per_op"] = n("backend_rejected") / ops
	v["solvecache.hit_ratio"] = ratio(n("cache_hits"), n("cache_hits")+n("cache_misses")+n("cache_shared"))
	v["solvecache.stores_per_op"] = n("cache_stored") / ops
	v["incr.floor_fallbacks_per_op"] = n("floor_fallbacks") / ops

	var reqKB, respKB []float64
	for _, o := range tp.ops {
		reqKB = append(reqKB, float64(len(tp.bodies[o.req]))/1024)
		respKB = append(respKB, float64(len(o.body))/1024)
	}
	v["api.request_kb"] = mean(reqKB)
	v["api.response_kb"] = mean(respKB)
	v["gen.send_lag_ms"] = mean(tp.lags())
	v["dataset.fromformat_ms"] = median(sa.fromFormat)
	v["model.fingerprint_ms"] = median(sa.fingerprint)
	v["model.fingerprint2_ms"] = median(sa.fingerprint2)
	v["cluster.route_fp_ms"] = median(sa.routeFP)
	v["api.response_encode_ms"] = median(sa.encode)
	if w.name != serveDrift {
		return
	}
	v["incr.warm_ratio"] = ratio(n("warm_solves"), n("backend_solves"))
	v["incr.repair_ms"] = median(sa.repair)
	v["incr.repair_kept_ratio"] = mean(sa.kept)
	v["incr.floor_ms"] = median(sa.floor)
	for _, cls := range driftClasses {
		v["incr.warm_solve_ms."+cls] = median(sa.warm[cls])
		v["incr.cold_solve_ms."+cls] = median(sa.cold[cls])
	}
	warmN := 0
	for _, xs := range sa.warm {
		warmN += len(xs)
	}
	v["core.solve_ms"] = ratio(ms(sa.solveWall), float64(warmN))
	v["core.parallelism"] = ratio(sa.solveCPU.Seconds(), sa.solveWall.Seconds())
}

// printSelfTimes writes the traced pass's per-layer self times: wall
// (each instant given to the deepest active layer, summing to the root
// span) and work (span minus its children, overlapping siblings counted
// each), plus the per-layer breakdown of the median-latency operation.
func printSelfTimes(out io.Writer, tp *pass) {
	var wallSum, workSum layerNS
	var worst int64
	var roots []float64
	type opSelf struct {
		op   int
		root int64
		wall layerNS
	}
	var all []opSelf
	for op, spans := range byOp(tp.spans) {
		root, wall, work := selfTimes(spans)
		if root == nil {
			continue
		}
		for l := range wall {
			wallSum[l] += wall[l]
			workSum[l] += work[l]
		}
		worst = max(worst, abs64(wall.sum()-root.dur()))
		roots = append(roots, float64(root.dur()))
		all = append(all, opSelf{op, root.dur(), wall})
	}
	if len(all) == 0 {
		return
	}
	n := float64(len(all))
	fmt.Fprintf(out, "self time per operation (mean over %d traced operations)\n", len(all))
	fmt.Fprintf(out, "  %-8s %12s %12s\n", "layer", "wall_ms", "work_ms")
	for l := 0; l < numLayers; l++ {
		fmt.Fprintf(out, "  %-8s %12.3f %12.3f\n", layerNames[l], float64(wallSum[l])/1e6/n, float64(workSum[l])/1e6/n)
	}
	fmt.Fprintf(out, "  %-8s %12.3f  (root span mean; wall selfs sum to it, largest per-operation gap %d ns)\n",
		"root", mean(roots)/1e6, worst)
	sort.Slice(all, func(i, j int) bool { return all[i].root < all[j].root })
	o := all[len(all)/2]
	fmt.Fprintf(out, "  median operation %d: root %.3f ms =", o.op, float64(o.root)/1e6)
	for l := 0; l < numLayers; l++ {
		fmt.Fprintf(out, " %s %.3f", layerNames[l], float64(o.wall[l])/1e6)
	}
	fmt.Fprintln(out)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
