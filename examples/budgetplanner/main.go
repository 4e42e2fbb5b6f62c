// Budget planning with the complementary objectives of Section 5: given a
// workload, sweep candidate budgets and report, for each, the utility
// A^BCC can reach — alongside the GMC3 view (cheapest budget per utility
// target) and the ECC sweet spot (the set with the best utility-to-cost
// ratio). Together these answer the analyst's question "how much budget
// should we ask for next quarter?".
//
// Run with:
//
//	go run ./examples/budgetplanner
package main

import (
	"context"
	"fmt"

	bcc "repro"
)

func main() {
	const seed = 42
	base := bcc.BestBuy(seed, 0)
	total := base.TotalUtility()
	fmt.Printf("workload: BestBuy-like, %d queries, total utility %.0f\n\n",
		base.NumQueries(), total)

	// Forward view: utility as a function of budget.
	fmt.Println("budget → achievable utility (A^BCC):")
	for _, budget := range []float64{25, 50, 100, 200, 400} {
		res := bcc.Solve(base.WithBudget(budget), bcc.Options{Seed: seed})
		bar := ""
		for i := 0.0; i < 40*res.Utility/total; i++ {
			bar += "#"
		}
		fmt.Printf("  %4.0f  %6.0f (%4.1f%%) %s\n", budget, res.Utility,
			100*res.Utility/total, bar)
	}

	// Backward view: cheapest budget per utility target.
	fmt.Println("\nutility target → cheapest budget (A^GMC3):")
	for _, f := range []float64{0.25, 0.5, 0.75, 0.9} {
		gm := run(base, "gmc3", bcc.Params{Seed: seed, Target: total * f})
		status := "ok"
		if !*gm.Achieved {
			status = "unreachable"
		}
		fmt.Printf("  %3.0f%%  cost %6.0f  (%s)\n", f*100, gm.Cost, status)
	}

	// Sweet spot: the most cost-effective classifier set of all.
	ec := run(base, "ecc", bcc.Params{})
	fmt.Printf("\nECC sweet spot: %d classifiers, utility %.0f at cost %.0f (ratio %.2f)\n",
		ec.Solution.Size(), ec.Utility, ec.Cost, ec.Utility/ec.Cost)
	fmt.Println("   → everything below this cost is 'cheap wins'; beyond it, returns diminish.")
}

// run runs the registered solver called name on the instance.
func run(in *bcc.Instance, name string, p bcc.Params) bcc.Outcome {
	out, err := bcc.Run(context.Background(), in, name, p)
	if err != nil {
		panic(err)
	}
	return out
}
