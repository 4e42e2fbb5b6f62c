// Quickstart: the paper's running example — an e-commerce platform must
// decide which binary classifiers to train so that search queries like
// "wooden table" can be answered, without exceeding a labeling budget.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math"

	bcc "repro"
)

func main() {
	b := bcc.NewBuilder()

	// The workload: three search queries with analyst-estimated utilities
	// (how valuable it is to compute each query's full result set).
	b.AddQuery(8, "wooden", "table")
	b.AddQuery(3, "round", "table")
	b.AddQuery(5, "running", "shoes")

	// Classifier construction costs (e.g. thousands of labeled examples).
	// A "wooden table" classifier is cheap to train (little visual
	// variability) but useful only for that query; the generic "wooden"
	// classifier costs more and helps several queries.
	b.SetCost(4, "wooden")
	b.SetCost(2, "table")
	b.SetCost(3, "round")
	b.SetCost(3, "wooden", "table")
	b.SetCost(5, "round", "table")
	b.SetCost(6, "running", "shoes")
	b.SetCost(9, "running") // hard to recognize "suitable for running" alone
	b.SetCost(9, "shoes")
	// "round wooden" with no context is considered impractical to train:
	b.SetCost(math.Inf(1), "round", "wooden")

	for _, budget := range []float64{3, 6, 9, 15} {
		in, err := b.Instance(budget)
		if err != nil {
			panic(err)
		}
		res := bcc.Solve(in, bcc.Options{})
		fmt.Printf("budget %4.0f → utility %4.0f (cost %4.0f), classifiers:",
			budget, res.Utility, res.Cost)
		for _, c := range res.Solution.Classifiers() {
			fmt.Printf(" %s", in.Universe().Format(c.Props))
		}
		fmt.Println()
	}

	// With a flexible budget, which classifier set gives the most utility
	// per unit of labeling cost?
	in, _ := b.Instance(0)
	ecc, err := bcc.Run(context.Background(), in, "ecc", bcc.Params{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nbest bang-for-buck: ratio %.2f (utility %.0f / cost %.0f)\n",
		ecc.Utility/ecc.Cost, ecc.Utility, ecc.Cost)

	// And the cheapest way to reach at least 70%% of the total utility?
	target := in.TotalUtility() * 0.7
	gm, err := bcc.Run(context.Background(), in, "gmc3", bcc.Params{Target: target})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cheapest ≥%.0f utility: cost %.0f (achieved=%v)\n",
		target, gm.Cost, *gm.Achieved)
}
