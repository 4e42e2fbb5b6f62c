package algo

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
)

// planDigests pins the exact plans of the deterministic solver core on
// Private-like instances, keyed "algo/budget". The eval golden report
// pins utilities only; these catch a plan that changes at equal utility.
// A deliberate plan change regenerates them from the failure output.
var planDigests = map[string]string{
	"abcc/300":    "f244f65992149ad2e4a9f734b136ca0491ce9ed485ca4fc5604dac1fd2e5aded", // utility 4919, 275 classifiers
	"ig1/300":     "9c6db68648dcc77f19e6a34e2d242266f24ba7694e7df623fd8605516f4ec43c", // utility 4807, 268 classifiers
	"ig2/300":     "1f4c3f2721b71354846b603016302a129fe66e3e65d193575b2eea31a0d89c0f", // utility 3975, 228 classifiers
	"submod/300":  "4f5361e8e7bb53d71cc33e67743d0d97a93559100b73d617a4e6642d19c56536", // utility 4807, 291 classifiers
	"abcc/1000":   "24966176a40f78277c610ade6d4752966521d7e97923b0d6c41fa6590860a890", // utility 10934, 494 classifiers
	"ig1/1000":    "6da3be319b5f4dc3b5aea6b3450f3258e62a6f2ceb1848c8f84196382225f531", // utility 10208, 523 classifiers
	"ig2/1000":    "3266a48be81d970aab5197f9cb8ff46989efd542064fad6a8db3c296a557f775", // utility 8994, 420 classifiers
	"submod/1000": "8b6502dc7b10cb793c28efda653f19f00e017f7e8f2a9b8e9f9dd7d94c57955b", // utility 10208, 546 classifiers
	"abcc/1800":   "ff23e81f247373e552cd2796a5c1a9f50ba8aae7cd9a9712cf3f2be829524ac7", // utility 16771, 684 classifiers
	"ig1/1800":    "3e6b3fa1e2d38ecc1deb186a531f054e53bf144aea19b1c8246f145ed9706c91", // utility 15248, 776 classifiers
	"ig2/1800":    "b37fcb8c63099fba2dff409553cc167f624754272a935b319a948862dc256a77", // utility 14578, 590 classifiers
	"submod/1800": "9f474f5ad9df32f175ceb4f482c978cc8bb9596cbbb4fc28c3fc2c448ac5ddaa", // utility 15621, 695 classifiers
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

func TestPlanDigests(t *testing.T) {
	for _, budget := range []float64{300, 1000, 1800} {
		in := dataset.Private(103, budget)
		for _, name := range []string{"abcc", "ig1", "ig2", "submod"} {
			d, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			out, err := d.Run(context.Background(), in, Params{})
			if err != nil {
				t.Fatalf("%s at B=%v: %v", name, budget, err)
			}
			key := fmt.Sprintf("%s/%v", name, budget)
			if got := planDigest(in, out.Solution); got != planDigests[key] {
				t.Errorf("%q: %q, // utility %v, %d classifiers", key, got, out.Utility, out.Solution.Size())
			}
		}
	}
}

// The pinned plans do not depend on how many threads the solvers get:
// TestPlanDigests' cases hash to the same pins at GOMAXPROCS 1, 2 and 4.
func TestPlanDigestsAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), TestPlanDigests)
	}
}
