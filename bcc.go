// Package bcc is a Go implementation of "Classifier Construction Under
// Budget Constraints" (Gershtein, Milo, Novgorodov, Razmadze — SIGMOD
// 2022): given a search-query workload with utilities, classifier
// construction costs and a budget, select the classifier set maximizing
// the total utility of the queries it can answer.
//
// The package is a façade over the internal implementation:
//
//   - Build instances with NewBuilder (or load them with ReadInstance, or
//     generate the paper's evaluation workloads with BestBuy / Private /
//     Synthetic).
//   - Solve runs A^BCC, the paper's algorithm (Algorithm 1): classifier
//     pruning, a knapsack solver for the BCC(1) subproblem, a Quadratic
//     Knapsack solver built on Heaviest-k-Subgraph heuristics for the
//     BCC(2) subproblem, MC3 local search and residual iteration.
//   - Run runs any registered solver by name: "abcc", the paper's
//     baselines "rand", "ig1" and "ig2", the exact reference "brute" for
//     small instances, "gmc3" for "cheapest classifier set reaching
//     utility T" (Section 5, Definition 5.1), "ecc" for "best utility per
//     cost" (Definition 5.2), and the submodular greedy "submod".
//
// A minimal use:
//
//	b := bcc.NewBuilder()
//	b.AddQuery(8, "wooden", "table")
//	b.AddQuery(5, "running", "shoes")
//	b.SetCost(3, "wooden")
//	// ... remaining costs ...
//	in, err := b.Instance(10) // budget 10
//	res := bcc.Solve(in, bcc.Options{})
//	fmt.Println(res.Utility, res.Solution.Classifiers())
package bcc

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/overlap"
	"repro/internal/partial"
	"repro/internal/propset"
	"repro/internal/querylog"
)

// Core model types.
type (
	// Instance is an immutable BCC problem ⟨Q, U, C, B⟩.
	Instance = model.Instance
	// Builder accumulates queries and costs into an Instance.
	Builder = model.Builder
	// Solution is a mutable selected-classifier set with utility/cost
	// accounting under the paper's exact-cover semantics.
	Solution = model.Solution
	// Query is a property conjunction with a utility.
	Query = model.Query
	// Classifier is a property conjunction with a construction cost.
	Classifier = model.Classifier
	// PropSet is a canonical property set.
	PropSet = propset.Set
	// PropID identifies one interned property.
	PropID = propset.ID
	// Universe interns property names.
	Universe = propset.Universe
)

// Solver types.
type (
	// Options tunes the A^BCC solver.
	Options = core.Options
	// Result reports a BCC solver run.
	Result = core.Result
	// Params carries the knobs of a Run: Seed, the utility Target of
	// gmc3, and a Warm incumbent for the warm-startable solvers.
	Params = algo.Params
	// Outcome reports a Run in one shape for every solver; Achieved
	// (gmc3) and Ratio (ecc) are set only by the families they name.
	Outcome = algo.Outcome
)

// NewBuilder returns a Builder with a fresh property universe.
func NewBuilder() *Builder { return model.NewBuilder() }

// NewSolution returns an empty solution for the instance.
func NewSolution(in *Instance) *Solution { return model.NewSolution(in) }

// Status reports how a context-aware solver run ended.
type Status = guard.Status

// Statuses of a context-aware solver run. A non-Complete result still
// holds the best budget-feasible solution found before the run stopped.
const (
	// Complete means the solver ran to its normal end.
	Complete = guard.Complete
	// DeadlineExceeded means the context deadline expired mid-solve.
	DeadlineExceeded = guard.DeadlineExceeded
	// Canceled means the context was canceled mid-solve.
	Canceled = guard.Canceled
	// Recovered means a panic inside the solver was contained and
	// reported via Result.Err instead of crashing the caller.
	Recovered = guard.Recovered
)

// Solve runs the paper's algorithm A^BCC on the instance.
func Solve(in *Instance, opts Options) Result { return core.Solve(in, opts) }

// SolveCtx runs A^BCC under a context. The solver is anytime: on deadline
// expiry or cancellation it returns the best budget-feasible solution
// found so far with Result.Status reporting why it stopped, and a short
// remaining deadline degrades the configuration gracefully (fewer
// restarts and rounds, down to a pure greedy floor) instead of returning
// nothing. Contained panics surface as Status Recovered plus Result.Err.
func SolveCtx(ctx context.Context, in *Instance, opts Options) Result {
	return core.SolveCtx(ctx, in, opts)
}

// Run runs the registered solver called name on the instance under ctx.
// The anytime solvers (abcc, gmc3, ecc, submod) honor the context's
// deadline and cancellation and return their best incumbent, with
// Outcome.Status reporting why they stopped; contained panics surface
// as Status Recovered plus Outcome.Err. The error return is for an
// unknown name or a rejected input, such as brute force on an
// oversized instance.
func Run(ctx context.Context, in *Instance, name string, p Params) (Outcome, error) {
	d, ok := algo.Lookup(name)
	if !ok {
		return Outcome{}, fmt.Errorf("bcc: unknown algo %q (registered: %s)", name, strings.Join(algo.Names(), ", "))
	}
	return d.Run(ctx, in, p)
}

// BestBuy generates the simulated BestBuy evaluation workload (≈1000
// electronics queries, uniform costs, frequency utilities).
func BestBuy(seed int64, budget float64) *Instance { return dataset.BestBuy(seed, budget) }

// Private generates the simulated private e-commerce workload (≈5000
// queries, analyst-style costs and utilities, category structure).
func Private(seed int64, budget float64) *Instance { return dataset.Private(seed, budget) }

// Synthetic generates the paper's synthetic workload: nQueries queries of
// length i with probability 2^-i over a 10K-property pool, uniform integer
// costs [0,50] and utilities [1,50].
func Synthetic(seed int64, nQueries int, budget float64) *Instance {
	return dataset.Synthetic(seed, nQueries, budget)
}

// Fingerprint returns the canonical hash identifying the instance's
// problem content ⟨Q,U,C,B⟩: stable across query/property/cost ordering,
// different whenever any utility, cost, or the budget changes. It is the
// cache-key prefix of the solving service (internal/solvecache) and the
// value printed by bccsolve -fingerprint.
func Fingerprint(in *Instance) string { return in.Fingerprint() }

// ReadInstance parses a JSON instance (see internal/dataset.FileFormat).
func ReadInstance(r io.Reader) (*Instance, error) { return dataset.Read(r) }

// WriteInstance serializes an instance to JSON.
func WriteInstance(w io.Writer, in *Instance) error { return dataset.Write(w, in) }

// Extension: partial-cover utility (the paper's §8 future work).
type (
	// Gain maps a query's covered-conjunct fraction to earned utility.
	Gain = partial.Gain
	// PartialResult reports a partial-cover solver run.
	PartialResult = partial.Result
)

// Gain curves for SolvePartial. GainThreshold reproduces base BCC.
var (
	GainThreshold Gain = partial.Threshold
	GainLinear    Gain = partial.Linear
	GainSqrt      Gain = partial.Sqrt
	GainAllButOne Gain = partial.AllButOne
)

// SolvePartial maximizes partial-cover utility within the budget: a query
// with k of its |q| conjuncts testable earns U(q)·g(k/|q|).
func SolvePartial(in *Instance, g Gain) PartialResult { return partial.Solve(in, g) }

// SolvePartialCtx is SolvePartial under a context; see SolveCtx for the
// anytime semantics.
func SolvePartialCtx(ctx context.Context, in *Instance, g Gain) PartialResult {
	return partial.SolveCtx(ctx, in, g)
}

// Extension: overlapping construction costs (the paper's §8 future work).
type (
	// OverlapCostModel prices classifier sets with shared per-property
	// labeling: C(S) = Σ_{p∈P(S)} Label(p) + Σ_{s∈S} Assembly(s).
	OverlapCostModel = overlap.CostModel
	// OverlapResult reports an overlap-aware solver run.
	OverlapResult = overlap.Result
)

// SolveOverlap maximizes covered utility within the budget under the
// shared-labeling cost model (the instance's own classifier costs are
// ignored).
func SolveOverlap(in *Instance, m OverlapCostModel) OverlapResult {
	return overlap.SolveCoverGreedy(in, m)
}

// SolveOverlapCtx is SolveOverlap under a context; see SolveCtx for the
// anytime semantics.
func SolveOverlapCtx(ctx context.Context, in *Instance, m OverlapCostModel) OverlapResult {
	return overlap.SolveCoverGreedyCtx(ctx, in, m)
}

// Query-log ingestion.
type (
	// LogOptions configures ParseQueryLog.
	LogOptions = querylog.Options
	// LogStats reports what ParseQueryLog kept and dropped.
	LogStats = querylog.Stats
	// LogWindow bounds timestamped ingestion to [From, To).
	LogWindow = querylog.Window
	// TimedLogOptions configures ParseQueryLogTimed.
	TimedLogOptions = querylog.TimedOptions
	// TimedLogStats adds window accounting to LogStats.
	TimedLogStats = querylog.TimedStats
)

// ParseQueryLog reads a "terms<TAB>count" search log into a Builder with
// frequencies as utilities; set costs on the Builder before calling
// Instance.
func ParseQueryLog(r io.Reader, opts LogOptions) (*Builder, LogStats, error) {
	return querylog.Parse(r, opts)
}

// ParseQueryLogTimed reads a timestamped "ts<TAB>terms<TAB>count" search
// log, keeping only events inside opts.Window (lines may be in any time
// order; repeated queries accumulate).
func ParseQueryLogTimed(r io.Reader, opts TimedLogOptions) (*Builder, TimedLogStats, error) {
	return querylog.ParseTimed(r, opts)
}

// Serving: the resilient HTTP client for a bccserver instance.
type (
	// Client calls POST /v1/solve and /v1/solve/batch with retries,
	// Retry-After-aware backoff and a circuit breaker.
	Client = client.Client
	// ClientConfig tunes a Client; only BaseURL is required.
	ClientConfig = client.Config
	// ClientStats is a consistent point-in-time view of a Client.
	ClientStats = client.Stats
	// ClientHTTPError is a non-2xx service answer with retry advice.
	ClientHTTPError = client.HTTPError
	// SolveRequest / SolveResponse are the service wire types; a
	// SolveRequest's Instance field uses the same JSON schema as the
	// instance files read by ReadInstance.
	SolveRequest  = api.SolveRequest
	SolveResponse = api.SolveResponse
	// BatchResponse holds per-item results/errors of a batch call.
	BatchResponse = api.BatchResponse
	// JobRequest / JobStatus / JobProgress / JobList are the wire types
	// of the durable async solve-job endpoints (POST /v1/jobs and
	// friends); Client.SubmitJob / JobStatus / JobResult / AwaitJob /
	// CancelJob speak them.
	JobRequest  = api.JobRequest
	JobStatus   = api.JobStatus
	JobProgress = api.JobProgress
	JobList     = api.JobList
)

// JobTerminal reports whether a job state string is final (completed,
// failed or canceled).
func JobTerminal(state string) bool { return api.JobTerminal(state) }

// NewClient builds a resilient service client.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }
