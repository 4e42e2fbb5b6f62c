// E-commerce catalog curation: a quarterly classifier-construction round
// over a realistic workload (the simulated private e-commerce dataset of
// the paper's evaluation: ~5000 queries, analyst costs and utilities,
// category structure).
//
// The example compares the paper's algorithm A^BCC against the greedy
// baselines at the real quarterly budget the paper reports (≈2000), then
// shows the diminishing-returns analysis of §6.2: how much budget a
// company actually needs for 50%, 65% and 75% of the total utility.
//
// Run with:
//
//	go run ./examples/ecommerce
package main

import (
	"context"
	"fmt"

	bcc "repro"
)

func main() {
	const seed = 1
	const quarterlyBudget = 2000

	in := bcc.Private(seed, quarterlyBudget)
	fmt.Printf("workload: %d queries, %d properties, %d candidate classifiers\n",
		in.NumQueries(), in.NumProperties(), len(in.Classifiers()))
	fmt.Printf("total utility if everything were covered: %.0f\n\n", in.TotalUtility())

	fmt.Printf("quarterly budget %v:\n", quarterlyBudget)
	type row struct {
		name string
		res  bcc.Outcome
	}
	runs := []row{
		{"RAND", run(in, "rand", bcc.Params{Seed: seed})},
		{"IG2 ", run(in, "ig2", bcc.Params{})},
		{"IG1 ", run(in, "ig1", bcc.Params{})},
		{"A^BCC", run(in, "abcc", bcc.Params{Seed: seed})},
	}
	for _, r := range runs {
		fmt.Printf("  %-6s utility %7.0f  (%.0f%% of total)  cost %6.0f  covered %d queries  [%v]\n",
			r.name, r.res.Utility, 100*r.res.Utility/in.TotalUtility(),
			r.res.Cost, r.res.Covered, r.res.Duration.Round(1e6))
	}

	// Utility split by covered query length (§6.2 reports ≈47% singletons,
	// ≈51% length-2 at this budget).
	abcc := runs[len(runs)-1].res
	byLen := map[int]float64{}
	for _, q := range abcc.Solution.CoveredQueries() {
		byLen[q.Length()] += q.Utility
	}
	fmt.Printf("\nA^BCC utility by query length:")
	for l := 1; l <= in.MaxQueryLength(); l++ {
		if byLen[l] > 0 {
			fmt.Printf("  len %d: %.0f%%", l, 100*byLen[l]/abcc.Utility)
		}
	}
	fmt.Println()

	// Diminishing returns: budget needed for increasing utility fractions.
	fmt.Println("\ndiminishing returns (cheapest budget per utility fraction):")
	for _, f := range []float64{0.5, 0.65, 0.75} {
		gm := run(in, "gmc3", bcc.Params{Seed: seed, Target: in.TotalUtility() * f})
		fmt.Printf("  %2.0f%% of utility needs budget ≈ %6.0f\n", f*100, gm.Cost)
	}
}

// run runs the registered solver called name on the instance.
func run(in *bcc.Instance, name string, p bcc.Params) bcc.Outcome {
	out, err := bcc.Run(context.Background(), in, name, p)
	if err != nil {
		panic(err)
	}
	return out
}
