package bcc_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	bcc "repro"
)

// TestQuickstart mirrors the README quickstart end to end through the
// public API.
func TestQuickstart(t *testing.T) {
	b := bcc.NewBuilder()
	b.AddQuery(8, "wooden", "table")
	b.AddQuery(3, "round", "table")
	b.AddQuery(5, "running", "shoes")
	b.SetCost(4, "wooden")
	b.SetCost(2, "table")
	b.SetCost(3, "round")
	b.SetCost(6, "running", "shoes")
	b.SetCost(math.Inf(1), "wooden", "table")
	b.SetCost(5, "round", "table")
	b.SetCost(9, "running")
	b.SetCost(9, "shoes")
	in, err := b.Instance(9)
	if err != nil {
		t.Fatal(err)
	}
	res := bcc.Solve(in, bcc.Options{})
	if res.Cost > 9+1e-9 {
		t.Fatalf("cost %v exceeds budget", res.Cost)
	}
	// Optimal at budget 9: wooden+table+round = 9 covering both table
	// queries (utility 11) vs running shoes (6 → utility 5).
	if res.Utility != 11 {
		t.Fatalf("utility = %v, want 11 (%v)", res.Utility, res.Solution.Classifiers())
	}
	opt, err := bcc.Run(context.Background(), in, "brute", bcc.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Utility != res.Utility {
		t.Fatalf("A^BCC %v != optimal %v", res.Utility, opt.Utility)
	}
}

func TestPublicBaselinesAndComplements(t *testing.T) {
	in := bcc.Synthetic(3, 300, 50)
	abcc := bcc.Solve(in, bcc.Options{Seed: 2})
	run := func(name string, p bcc.Params) bcc.Outcome {
		t.Helper()
		out, err := bcc.Run(context.Background(), in, name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return out
	}
	for name, r := range map[string]bcc.Outcome{
		"RAND": run("rand", bcc.Params{Seed: 2}),
		"IG1":  run("ig1", bcc.Params{}),
		"IG2":  run("ig2", bcc.Params{}),
	} {
		if r.Cost > in.Budget()+1e-9 {
			t.Fatalf("%s exceeded budget", name)
		}
		if r.Utility > abcc.Utility+1e-9 {
			t.Errorf("%s (%v) beats A^BCC (%v)", name, r.Utility, abcc.Utility)
		}
	}

	gm := run("gmc3", bcc.Params{Seed: 2, Target: in.TotalUtility() * 0.3})
	if !*gm.Achieved {
		t.Fatal("GMC3 missed an easy target")
	}
	// Outcome.Ratio is nil when the ratio is infinite (a free plan).
	ec := run("ecc", bcc.Params{})
	if ec.Utility <= 0 || ec.Ratio != nil && *ec.Ratio <= 0 {
		t.Fatalf("ECC ratio = %v/%v", ec.Utility, ec.Cost)
	}
}

func TestRunUnknownName(t *testing.T) {
	in := bcc.Synthetic(3, 50, 20)
	for _, name := range []string{"evo", "anneal", ""} {
		out, err := bcc.Run(context.Background(), in, name, bcc.Params{})
		if err == nil {
			t.Fatalf("Run(%q) ran: utility %v", name, out.Utility)
		}
		if !strings.Contains(err.Error(), "abcc, brute, ecc, gmc3, ig1, ig2, rand, submod") {
			t.Errorf("Run(%q): error %q does not list the registered names", name, err)
		}
	}
}

func TestPublicDatasetsAndIO(t *testing.T) {
	bb := bcc.BestBuy(1, 100)
	if bb.NumQueries() < 900 {
		t.Fatalf("BestBuy too small: %d", bb.NumQueries())
	}
	p := bcc.Private(1, 2000)
	if p.NumQueries() < 4500 {
		t.Fatalf("Private too small: %d", p.NumQueries())
	}
	var buf bytes.Buffer
	small := bcc.Synthetic(1, 50, 20)
	if err := bcc.WriteInstance(&buf, small); err != nil {
		t.Fatal(err)
	}
	back, err := bcc.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumQueries() != small.NumQueries() {
		t.Fatal("round trip lost queries")
	}
}
