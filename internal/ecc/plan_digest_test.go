package ecc

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
)

// baselineDigests pins the exact best-ratio prefixes of the RAND(E),
// IG1(E) and IG2(E) baselines on Private-like instances without free
// classifiers (a free one makes any prefix's ratio infinite), keyed
// "algo/instance seed". A deliberate plan change regenerates them from
// the failure output.
var baselineDigests = map[string]string{
	"rand/103": "c7e1d1440d81ef9fba50a2168ef3fd5a093bd00eac51bbe9994c78a328bd1196", // ratio 1.6213947190250508, utility 35922, 2862 classifiers
	"ig1/103":  "024df531c3f058c5a61eee5ee1968b3cd797071885c5f7392fa6b62b1df35aca", // ratio 21, utility 21, 1 classifiers
	"ig2/103":  "8c9e68a5d906bd75cbccf7961a5b4df777e56b4cb0e9159727548f19f786cf16", // ratio 20, utility 40, 2 classifiers
	"rand/501": "0e95f6eb852467364912b06abfcec314438fa3a471fc9915ebca9e01f1af64eb", // ratio 7, utility 42, 2 classifiers
	"ig1/501":  "0066c26c1bf223a874082a7142ee4d389803e46713e38406f4aecc7453e696c7", // ratio 20, utility 20, 1 classifiers
	"ig2/501":  "0cf933ca16b2db481336d8d9fdb951a6b5b9ca65df4b149b8d128192ea5bcb66", // ratio 19, utility 38, 2 classifiers
}

// planDigest hashes a plan's classifiers, named, in the solution's
// canonical order.
func planDigest(in *model.Instance, sol *model.Solution) string {
	h := sha256.New()
	for _, c := range sol.Classifiers() {
		fmt.Fprintln(h, in.Universe().Format(c.Props))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestBaselineDigests(t *testing.T) {
	for _, seed := range []int64{103, 501} {
		in := dataset.PrivateAllPaid(seed, 0)
		for _, run := range []struct {
			name string
			res  Result
		}{
			{"rand", SolveRand(in, 42)},
			{"ig1", SolveIG1(in)},
			{"ig2", SolveIG2(in)},
		} {
			key := fmt.Sprintf("%s/%d", run.name, seed)
			if got := planDigest(in, run.res.Solution); got != baselineDigests[key] {
				t.Errorf("%q: %q, // ratio %v, utility %v, %d classifiers", key, got, run.res.Ratio, run.res.Utility, run.res.Solution.Size())
			}
		}
	}
}
