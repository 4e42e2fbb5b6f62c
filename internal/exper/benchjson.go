package exper

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/incr"
	"repro/internal/model"
	"repro/internal/obs"
)

// BenchSchema versions the machine-readable benchmark report so
// downstream tooling can detect incompatible layout changes. Bump the
// suffix whenever a field changes meaning or disappears.
const BenchSchema = "bcc-bench/1"

// StageSplit is one solver stage's share of a benchmark run, aggregated
// over every repetition (see obs.Recorder).
type StageSplit struct {
	Stage   string `json:"stage"`
	Calls   int64  `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
	Size    int64  `json:"size"`
}

// AlgoBench is one algorithm's benchmark row: classic ns/op numbers plus
// the quality of the solution it produced and, for the staged solvers,
// where the time went.
type AlgoBench struct {
	Algo        string       `json:"algo"`
	Runs        int          `json:"runs"`
	NsPerOp     int64        `json:"ns_per_op"`
	AllocsPerOp uint64       `json:"allocs_per_op"`
	BytesPerOp  uint64       `json:"bytes_per_op"`
	Utility     float64      `json:"utility"`
	Cost        float64      `json:"cost"`
	Stages      []StageSplit `json:"stages,omitempty"`
}

// ParetoPoint is one (workload, algorithm) sample of the utility-vs-time
// Pareto comparison: how much solution quality each algorithm trades for
// speed, normalized against the A^BCC reference on the same workload.
type ParetoPoint struct {
	Workload string  `json:"workload"`
	Algo     string  `json:"algo"`
	Runs     int     `json:"runs"`
	NsPerOp  int64   `json:"ns_per_op"`
	Utility  float64 `json:"utility"`
	Cost     float64 `json:"cost"`
	// UtilityVsABCC is Utility / A^BCC's utility on this workload.
	UtilityVsABCC float64 `json:"utility_vs_abcc"`
	// SpeedupVsABCC is A^BCC's ns/op divided by this algorithm's.
	SpeedupVsABCC float64 `json:"speedup_vs_abcc"`
}

// DriftPoint is one warm-vs-cold incremental re-solve sample
// (DESIGN.md §17): the base workload's plan is repaired against a
// churned variant and seeds a warm A^BCC run, timed against the cold
// solve of the same churned instance.
type DriftPoint struct {
	Workload string  `json:"workload"`
	Churn    float64 `json:"churn"`
	Runs     int     `json:"runs"`
	// ColdNsPerOp / WarmNsPerOp time the churned re-solve without and
	// with the repaired seed; warm includes the repair itself.
	ColdNsPerOp int64   `json:"cold_ns_per_op"`
	WarmNsPerOp int64   `json:"warm_ns_per_op"`
	WarmSpeedup float64 `json:"warm_speedup"`
	ColdUtility float64 `json:"cold_utility"`
	WarmUtility float64 `json:"warm_utility"`
	// UtilityRatio is warm/cold; FloorMet reports it against the abcc
	// registry EvalFloor — the PR 10 acceptance gate at 1% churn.
	UtilityRatio float64 `json:"utility_ratio"`
	FloorMet     bool    `json:"floor_met"`
	// RepairKept counts base-plan classifiers that survived repair.
	RepairKept int `json:"repair_kept"`
}

// BenchReport is the versioned JSON document that `bccbench -bench-json`
// and `make bench-json` emit (BENCH_PR10.json).
type BenchReport struct {
	Schema      string      `json:"schema"`
	Build       obs.Build   `json:"build"`
	Seed        int64       `json:"seed"`
	Queries     int         `json:"queries"`
	Classifiers int         `json:"classifiers"`
	Budget      float64     `json:"budget"`
	Algorithms  []AlgoBench `json:"algorithms"`
	// Pareto compares the fast tiers against A^BCC across workloads.
	Pareto []ParetoPoint `json:"pareto,omitempty"`
	// Drift is the warm-vs-cold incremental re-solve sweep.
	Drift []DriftPoint `json:"drift,omitempty"`
}

// benchLoop repeats fn until both floors are met — at least minRuns
// repetitions and at least budget of wall time — so fast algorithms get
// enough samples to average while slow ones still terminate. It reports
// the run count, mean ns/op, and mean allocation deltas measured via
// runtime.ReadMemStats (approximate: background allocation from the GC
// and runtime is included, which is fine at the magnitudes solvers
// allocate).
func benchLoop(ctx context.Context, minRuns int, budget time.Duration, fn func()) (runs int, nsPerOp int64, allocsPerOp, bytesPerOp uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for runs < minRuns || time.Since(start) < budget {
		if ctx.Err() != nil && runs > 0 {
			break
		}
		fn()
		runs++
	}
	runtime.ReadMemStats(&after)
	elapsed := time.Since(start)
	n := int64(runs)
	return runs, int64(elapsed) / n,
		(after.Mallocs - before.Mallocs) / uint64(n),
		(after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// splits drains a recorder into the report's stage rows.
func splits(rec *obs.Recorder) []StageSplit {
	var out []StageSplit
	for _, st := range rec.Snapshot() {
		out = append(out, StageSplit{
			Stage:   st.Stage,
			Calls:   st.Calls,
			TotalNs: int64(st.Total),
			MaxNs:   int64(st.Max),
			Size:    st.Size,
		})
	}
	return out
}

// BenchJSON benchmarks every servable registry algorithm on one
// synthetic workload and returns the versioned report, followed by the
// utility-vs-time Pareto sweep. Stage splits are recorded with an
// obs.Recorder threaded through the context, aggregated across all
// repetitions of the algorithm.
func BenchJSON(ctx context.Context, seed int64) BenchReport {
	const (
		nQueries = 2000
		budget   = 800.0
		minRuns  = 3
		perAlgo  = time.Second
	)
	in := dataset.Synthetic(seed, nQueries, budget)
	rep := BenchReport{
		Schema:      BenchSchema,
		Build:       obs.ReadBuild(),
		Seed:        seed,
		Queries:     in.NumQueries(),
		Classifiers: len(in.Classifiers()),
		Budget:      in.Budget(),
	}

	// The GMC3 target must be reachable, so derive it from a reference
	// A^BCC run instead of hard-coding a utility.
	ref := core.SolveCtx(ctx, in, core.Options{Seed: seed})
	target := ref.Utility * 0.8

	// One row per servable algorithm, straight from the registry: a new
	// solver family shows up here by registering itself. The staged
	// (anytime) solvers get an obs recorder for per-stage splits.
	for _, name := range algo.ServableNames() {
		d, _ := algo.Lookup(name)
		params := algo.Params{Seed: seed, Target: target}
		runCtx := ctx
		var rec *obs.Recorder
		if d.Anytime {
			rec = &obs.Recorder{}
			runCtx = obs.WithRecorder(ctx, rec)
		}
		var utility, cost float64
		runs, ns, allocs, bytes := benchLoop(ctx, minRuns, perAlgo, func() {
			out, _ := d.Run(runCtx, in, params)
			utility, cost = out.Utility, out.Cost
		})
		row := AlgoBench{
			Algo:        name,
			Runs:        runs,
			NsPerOp:     ns,
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
			Utility:     utility,
			Cost:        cost,
		}
		if rec != nil {
			row.Stages = splits(rec)
		}
		rep.Algorithms = append(rep.Algorithms, row)
	}

	rep.Pareto = paretoSweep(ctx, seed, in)
	rep.Drift = driftSweep(ctx, seed, in)
	return rep
}

// driftChurns are the workload-drift fractions the incremental re-solve
// sweep samples: light (steady-state window-over-window), moderate, and
// heavy churn where warm starts stop paying.
var driftChurns = []float64{0.01, 0.05, 0.20}

// driftSweep measures the incremental re-solve path: solve the base
// workload once, then for each churn level repair the base plan against
// the drifted instance and time warm vs cold A^BCC. The 1% row is the
// acceptance benchmark TestWarmDriftSpeedup asserts (warm ≥ 3x faster
// at a utility ratio meeting the abcc EvalFloor).
func driftSweep(ctx context.Context, seed int64, base *model.Instance) []DriftPoint {
	const (
		minRuns = 2
		perCase = 300 * time.Millisecond
	)
	baseRes := core.SolveCtx(ctx, base, core.Options{Seed: seed})
	if baseRes.Solution == nil {
		return nil
	}
	u := base.Universe()
	var plan [][]string
	for _, c := range baseRes.Solution.Classifiers() {
		names := make([]string, c.Props.Len())
		for i, id := range c.Props {
			names[i] = u.Name(id)
		}
		plan = append(plan, names)
	}
	d, _ := algo.Lookup("abcc")

	var out []DriftPoint
	for _, churn := range driftChurns {
		drift := dataset.SyntheticDrift(seed, base.NumQueries(), base.Budget(), churn)

		var coldUtility float64
		coldRuns, coldNs, _, _ := benchLoop(ctx, minRuns, perCase, func() {
			coldUtility = core.SolveCtx(ctx, drift, core.Options{Seed: seed}).Utility
		})

		var warmUtility float64
		var kept int
		_, warmNs, _, _ := benchLoop(ctx, minRuns, perCase, func() {
			warm := incr.Repair(drift, plan)
			kept = len(warm)
			warmUtility = core.SolveCtx(ctx, drift, core.Options{Seed: seed, Warm: warm}).Utility
		})

		p := DriftPoint{
			Workload:    "synthetic-2000-b800",
			Churn:       churn,
			Runs:        coldRuns,
			ColdNsPerOp: coldNs,
			WarmNsPerOp: warmNs,
			ColdUtility: coldUtility,
			WarmUtility: warmUtility,
			RepairKept:  kept,
		}
		if warmNs > 0 {
			p.WarmSpeedup = float64(coldNs) / float64(warmNs)
		}
		if coldUtility > 0 {
			p.UtilityRatio = warmUtility / coldUtility
			p.FloorMet = p.UtilityRatio >= d.EvalFloor
		}
		out = append(out, p)
	}
	return out
}

// paretoAlgos are the utility-vs-time comparison set: the A^BCC
// reference against the greedy baselines and the submodular greedy,
// the fast approximate serving tier.
var paretoAlgos = []string{"abcc", "ig1", "ig2", "submod"}

// paretoSweep samples every pareto algorithm on each workload and
// normalizes utility and speed against the workload's A^BCC run.
func paretoSweep(ctx context.Context, seed int64, synthetic *model.Instance) []ParetoPoint {
	const (
		minRuns = 1
		perAlgo = 200 * time.Millisecond
	)
	workloads := []struct {
		name string
		in   *model.Instance
	}{
		{"synthetic-2000-b800", synthetic},
		{"bestbuy-b300", dataset.BestBuy(seed, 300)},
	}
	var out []ParetoPoint
	for _, w := range workloads {
		base := len(out)
		var refNs int64
		var refUtility float64
		for _, name := range paretoAlgos {
			d, _ := algo.Lookup(name)
			var utility, cost float64
			runs, ns, _, _ := benchLoop(ctx, minRuns, perAlgo, func() {
				res, _ := d.Run(ctx, w.in, algo.Params{Seed: seed})
				utility, cost = res.Utility, res.Cost
			})
			if name == "abcc" {
				refNs, refUtility = ns, utility
			}
			out = append(out, ParetoPoint{
				Workload: w.name,
				Algo:     name,
				Runs:     runs,
				NsPerOp:  ns,
				Utility:  utility,
				Cost:     cost,
			})
		}
		for i := base; i < len(out); i++ {
			if refUtility > 0 {
				out[i].UtilityVsABCC = out[i].Utility / refUtility
			}
			if out[i].NsPerOp > 0 {
				out[i].SpeedupVsABCC = float64(refNs) / float64(out[i].NsPerOp)
			}
		}
	}
	return out
}

// WriteJSON renders the report with stable indentation so the committed
// BENCH_PR10.json diffs cleanly between runs.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
