package gmc3

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
)

// baselineDigests pins the exact plans and step counts of the RAND(G),
// IG1(G) and IG2(G) baselines on Private-like instances, keyed
// "algo/instance seed/target share". The tests above check that the
// baselines reach their targets; these catch a plan that changes at
// equal cost. The full-utility target runs each loop to its end, as
// ECC's unbudgeted baselines do. A deliberate plan change regenerates
// them from the failure output.
var baselineDigests = map[string]string{
	"rand/103/0.4": "5fd0cc9c06b38dd5174cd7a1048f3e579ef7210bf4cb0073439a50e86bf191f8", // cost 17720, utility 28934, 2342 classifiers
	"ig1/103/0.4":  "d765ecc6b091a99fb2f42be545bf9a630019b289288de073dae647e3830d1018", // cost 4601, utility 28934, 1438 classifiers
	"ig2/103/0.4":  "dab981b2a79682ef2345d8ee4308633b2add19347432abed596cfde1db946832", // cost 4114, utility 28934, 1063 classifiers
	"rand/501/0.7": "3a371e9784bf1bd94dc6f331a420dad48dca46fc0f5835061dec517952f59a1f", // cost 31241, utility 45068, 4143 classifiers
	"ig1/501/0.7":  "b2b9a5ea5022389e7d5fdc89cd287efb9a09720bf0f22005dede559311ffabd7", // cost 11181, utility 45072, 2558 classifiers
	"ig2/501/0.7":  "969ba833a768e1b687a55597ffba7cbaf5d2f70015b2a4e88684548ff4feac18", // cost 8749, utility 45069, 1882 classifiers
	"rand/7/1":     "d1f20d3a3197e62fa7a5942009bbb354ae3b5bffdaca0c7f37a916ecca293c3b", // cost 49023, utility 65259, 6482 classifiers
	"ig1/7/1":      "4945c09846e18eba2c14ae143178791a68d9f9d0655462478aa046f68377e07e", // cost 23167, utility 65259, 3784 classifiers
	"ig2/7/1":      "a535b74251d78ed6e1102d0d99bc73418faa40cc3d418baf09dc144b281020e9", // cost 18183, utility 65259, 3007 classifiers
}

// planDigest hashes a result's classifiers, named, in the solution's
// canonical order, followed by its step count.
func planDigest(in *model.Instance, r Result) string {
	h := sha256.New()
	for _, c := range r.Solution.Classifiers() {
		fmt.Fprintln(h, in.Universe().Format(c.Props))
	}
	fmt.Fprintln(h, "steps", r.Iterations)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestBaselineDigests(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		share float64
	}{{103, 0.4}, {501, 0.7}, {7, 1}} {
		in := dataset.Private(c.seed, 0)
		target := c.share * in.TotalUtility()
		for _, run := range []struct {
			name string
			res  Result
		}{
			{"rand", SolveRand(in, target, 42)},
			{"ig1", SolveIG1(in, target)},
			{"ig2", SolveIG2(in, target)},
		} {
			key := fmt.Sprintf("%s/%d/%v", run.name, c.seed, c.share)
			if got := planDigest(in, run.res); got != baselineDigests[key] {
				t.Errorf("%q: %q, // cost %v, utility %v, %d classifiers", key, got, run.res.Cost, run.res.Utility, run.res.Solution.Size())
			}
		}
	}
}

// solveDigests pins A^GMC3's own plans, keyed "instance/target share":
// the classifiers, the cost and utility bits and the count of inner
// A^BCC runs. The instances are small enough that all four solves take
// about a second; they still run the binary search, the inner A^BCC
// runs on residual instances and the greedy floors.
var solveDigests = map[string]string{
	"psub103/0.4": "dc074ae3f9ee688d0a774c63f8b645c7c4573e8652c9bd6c5a9162fa9a450a9d", // cost 99, utility 706, 24 classifiers, 40 runs
	"psub103/0.7": "ed681301d3ad2411ba8d235e803504ccbf1df226e366b228ab6734e1f1a78f00", // cost 219, utility 1220, 38 classifiers, 49 runs
	"psub501/0.7": "f2a0f32762c394b7d5eff27d5ddfe4504630b5e5fcd2e0e85aa501a72b584cd0", // cost 148, utility 321, 30 classifiers, 49 runs
	"syn1/0.4":    "a2ba54761ca1b8429b1a1d74b0ec3f9f4a219d99bcaff668e074fafca88867a9", // cost 241, utility 841, 35 classifiers, 34 runs
}

// solveDigest is planDigest plus the bits of the result's cost and
// utility.
func solveDigest(in *model.Instance, r Result) string {
	h := sha256.New()
	fmt.Fprintln(h, planDigest(in, r))
	fmt.Fprintf(h, "cost %x utility %x\n", math.Float64bits(r.Cost), math.Float64bits(r.Utility))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSolveDigests(t *testing.T) {
	instances := map[string]*model.Instance{
		"psub103": dataset.PrivateSubset(103, 0, 600),
		"psub501": dataset.PrivateSubset(501, 0, 1000),
		"syn1":    dataset.Synthetic(1, 80, 0),
	}
	for _, c := range []struct {
		name  string
		share float64
	}{{"psub103", 0.4}, {"psub103", 0.7}, {"psub501", 0.7}, {"syn1", 0.4}} {
		in := instances[c.name]
		r := Solve(in, c.share*in.TotalUtility(), Options{Seed: 1})
		key := fmt.Sprintf("%s/%v", c.name, c.share)
		if !r.Achieved {
			t.Errorf("%q: target not reached (utility %v)", key, r.Utility)
		}
		if got := solveDigest(in, r); got != solveDigests[key] {
			t.Errorf("%q: %q, // cost %v, utility %v, %d classifiers, %d runs", key, got, r.Cost, r.Utility, r.Solution.Size(), r.Iterations)
		}
	}
}
