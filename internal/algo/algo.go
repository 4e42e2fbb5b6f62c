// Package algo is the solver registry: one table mapping algorithm
// names to descriptors — a normalized entry point plus capability flags
// — so the server, the gateway (via the server's validation), the job
// runner and the CLI tools all dispatch from the same source of truth
// instead of parallel hard-coded switches. Adding a solver family is
// one MustRegister call in builtin.go; the HTTP 400 for an unknown
// algo, the bccsolve/bccbench usage text and the bench rows all follow
// automatically.
package algo

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/propset"
)

// Params carries the per-request solver knobs shared by every
// algorithm; each Run uses the ones its family understands and ignores
// the rest.
type Params struct {
	// Seed drives solver randomness; 0 means the solver default.
	Seed int64
	// Target is the utility target for target-seeking solvers (gmc3).
	Target float64
	// Warm seeds anytime solvers with a previous incumbent (checkpoint
	// resume); one-shot solvers ignore it.
	Warm []propset.Set
}

// Outcome is the normalized result every registered Run returns: the
// common accounting all solvers share plus the optional family-specific
// extras (Achieved for target-seeking runs, Ratio for ratio-maximizing
// ones).
type Outcome struct {
	Solution *model.Solution
	Utility  float64
	Cost     float64
	// Covered is the number of covered queries.
	Covered int
	// Iterations is the family's own progress unit: residual rounds or
	// greedy steps.
	Iterations int
	Duration   time.Duration
	// Status and Err report how the run ended (see guard.Status); every
	// status carries a budget-feasible Solution.
	Status guard.Status
	Err    error
	// Achieved is set by target-seeking solvers (gmc3): whether the
	// target utility was reached.
	Achieved *bool
	// Ratio is set by ratio-maximizing solvers (ecc) when finite.
	Ratio *float64
	// Floored reports that a warm run landed below the cold IG1 plan and
	// the outcome carries that plan instead (see Descriptor.WarmStart).
	// Status and Err still describe the solver's own run.
	Floored bool
}

// RunFunc executes one solve. The error return is for hard input
// rejections (e.g. brute force on an oversized instance) — solver
// failures inside a run surface as Outcome.Status/Err instead.
type RunFunc func(ctx context.Context, in *model.Instance, p Params) (Outcome, error)

// Descriptor describes one registered algorithm.
type Descriptor struct {
	// Name is the algo= / -algo selector.
	Name string
	// Summary is the one-line description shown in usage text.
	Summary string
	// Tier is the speed/quality tier shown in docs: "exact",
	// "baseline", "fast-approx" or "reference".
	Tier string
	// Anytime solvers honor context deadlines/cancellation and always
	// return the best feasible incumbent found so far.
	Anytime bool
	// Deterministic solvers produce bit-identical output for the same
	// instance and Params (including Seed).
	Deterministic bool
	// NeedsTarget solvers require Params.Target > 0 (gmc3).
	NeedsTarget bool
	// Seeded solvers consume Params.Seed.
	Seeded bool
	// Servable solvers are selectable through the HTTP API; the rest
	// (brute force) are CLI-only.
	Servable bool
	// IgnoresBudget solvers optimize an objective that is allowed to
	// spend past the instance budget (gmc3 minimizes cost to a target,
	// ecc maximizes utility per cost); the quality harness skips the
	// budget-feasibility invariant for them.
	IgnoresBudget bool
	// WarmStart solvers consume Params.Warm as an initial incumbent:
	// infeasible, oversized or stale seeds must be repaired or ignored,
	// never fatal. Register holds every warm run of a WarmStart solver
	// that keeps the budget (IgnoresBudget unset) to the cold IG1 plan,
	// so a warm result never falls below incr.Floor. The incremental
	// re-solve subsystem (internal/incr, DESIGN.md §17) only routes warm
	// plans to solvers with this flag.
	WarmStart bool
	// EvalFloor is the pinned minimum utility ratio (solver utility /
	// best-known) this algorithm must reach on every golden eval dataset
	// (internal/eval, cmd/bcceval) at the pinned seed. 0 means ungated.
	// Floors are chosen from the observed per-suite minimum minus a
	// safety margin — see DESIGN.md §15 for the methodology.
	EvalFloor float64
	// Run executes the solver.
	Run RunFunc
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Descriptor)
)

// Register adds a descriptor to the registry, rejecting blanks,
// duplicates and nil Run funcs. The Run of a budgeted WarmStart solver
// is registered held to the IG1 floor (see floorWarm).
func Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("algo: descriptor with empty name")
	}
	if d.Run == nil {
		return fmt.Errorf("algo: descriptor %q has no Run", d.Name)
	}
	if d.WarmStart && !d.IgnoresBudget {
		d.Run = floorWarm(d.Run)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[d.Name]; dup {
		return fmt.Errorf("algo: %q already registered", d.Name)
	}
	registry[d.Name] = d
	return nil
}

// floorWarm wraps run so that a warm run never answers below the cold
// IG1 plan: when core.SolveIG1 has higher utility, or equal utility at
// lower cost, its plan replaces the solver's and Floored is set. IG1
// runs without the request's context, so the floor holds even when the
// deadline has already passed. Cold runs and rejected runs pass
// through untouched.
func floorWarm(run RunFunc) RunFunc {
	return func(ctx context.Context, in *model.Instance, p Params) (Outcome, error) {
		out, err := run(ctx, in, p)
		if err != nil || len(p.Warm) == 0 {
			return out, err
		}
		ig := core.SolveIG1(in)
		out.Duration += ig.Duration
		if ig.Utility > out.Utility || (ig.Utility == out.Utility && ig.Cost < out.Cost) {
			out.Solution, out.Utility, out.Cost, out.Covered = ig.Solution, ig.Utility, ig.Cost, ig.Covered
			out.Floored = true
		}
		return out, nil
	}
}

// MustRegister is Register, panicking on error. The built-in table uses
// it from init, where a failure is a programming error.
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (Descriptor, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// Names returns every registered algorithm name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ServableNames returns the sorted names selectable through the HTTP
// API — the list the server's unknown-algo 400 reports.
func ServableNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, d := range registry {
		if d.Servable {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// CheckServable reports why a request for the algorithm called name,
// with the given target, cannot be served: an unknown or CLI-only name,
// or an algorithm that needs a target without a positive one. Its
// message is the one the HTTP API answers 400 with; nil means servable.
func CheckServable(name string, target float64) error {
	d, ok := Lookup(name)
	if !ok || !d.Servable {
		return fmt.Errorf("unknown algo %q (supported: %s)", name, strings.Join(ServableNames(), ", "))
	}
	if d.NeedsTarget && !(target > 0) {
		return fmt.Errorf("algo %s requires a positive target, got %v", name, target)
	}
	return nil
}

// Usage renders one line per registered algorithm — name, summary,
// capability flags — for CLI usage text, so the docs cannot drift from
// the registry.
func Usage() string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		d := registry[name]
		caps := []string{d.Tier}
		if d.Anytime {
			caps = append(caps, "anytime")
		}
		if d.Seeded {
			caps = append(caps, "seeded")
		}
		if d.NeedsTarget {
			caps = append(caps, "needs target")
		}
		if !d.Servable {
			caps = append(caps, "cli-only")
		}
		fmt.Fprintf(&b, "  %-7s %s [%s]\n", name, d.Summary, strings.Join(caps, ", "))
	}
	return b.String()
}
