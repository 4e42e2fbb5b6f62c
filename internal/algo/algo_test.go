package algo

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/model"
)

// builtins is the complete expected registry population; a new solver
// family must be added here (and to the docs) when it registers itself.
var builtins = []string{"abcc", "brute", "ecc", "gmc3", "ig1", "ig2", "rand", "submod"}

func TestBuiltinsRegistered(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(names) != len(builtins) {
		t.Fatalf("Names() = %v, want %v", names, builtins)
	}
	for i, want := range builtins {
		if names[i] != want {
			t.Fatalf("Names() = %v, want %v", names, builtins)
		}
	}
	for _, name := range names {
		d, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed a listed name", name)
		}
		if d.Name != name || d.Summary == "" || d.Tier == "" || d.Run == nil {
			t.Errorf("descriptor %q incomplete: %+v", name, d)
		}
	}
}

func TestServableNamesExcludeCLIOnly(t *testing.T) {
	servable := ServableNames()
	if !sort.StringsAreSorted(servable) {
		t.Errorf("ServableNames() not sorted: %v", servable)
	}
	for _, name := range servable {
		if name == "brute" {
			t.Error("brute (exponential, CLI-only) must not be servable")
		}
	}
	if len(servable) != len(builtins)-1 {
		t.Errorf("ServableNames() = %v, want all builtins except brute", servable)
	}
}

func TestLookupUnknown(t *testing.T) {
	if d, ok := Lookup("no-such-algo"); ok {
		t.Fatalf("Lookup of unknown name returned %+v", d)
	}
}

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	if err := Register(Descriptor{Name: "", Run: nil}); err == nil {
		t.Error("Register accepted a blank name")
	}
	if err := Register(Descriptor{Name: "x-no-run"}); err == nil {
		t.Error("Register accepted a nil Run")
	}
	dup := Descriptor{Name: "abcc", Run: func(context.Context, *model.Instance, Params) (Outcome, error) {
		return Outcome{}, nil
	}}
	if err := Register(dup); err == nil {
		t.Error("Register accepted a duplicate name")
	}
}

func TestUsageListsEveryAlgo(t *testing.T) {
	usage := Usage()
	for _, name := range builtins {
		if !strings.Contains(usage, name) {
			t.Errorf("Usage() omits %q:\n%s", name, usage)
		}
	}
	if !strings.Contains(usage, "needs target") {
		t.Errorf("Usage() omits the needs-target capability:\n%s", usage)
	}
}

// TestServableRunContracts runs every servable algorithm on one small
// instance and checks the normalized Outcome contract: a feasible
// solution, consistent quality accounting, Complete status.
func TestServableRunContracts(t *testing.T) {
	in := dataset.Synthetic(3, 40, 15)
	total := 0.0
	for _, q := range in.Queries() {
		total += q.Utility
	}
	for _, name := range ServableNames() {
		d, _ := Lookup(name)
		out, err := d.Run(context.Background(), in, Params{Seed: 1, Target: total * 0.2})
		if err != nil {
			t.Errorf("%s: Run error: %v", name, err)
			continue
		}
		if out.Solution == nil {
			t.Errorf("%s: nil Solution", name)
			continue
		}
		if out.Status != guard.Complete {
			t.Errorf("%s: Status = %v, want Complete", name, out.Status)
		}
		if out.Utility < 0 || out.Cost < 0 {
			t.Errorf("%s: negative accounting: utility=%v cost=%v", name, out.Utility, out.Cost)
		}
		// gmc3 and ecc answer different objectives (target / ratio) and
		// may exceed the instance budget by design; the budgeted solvers
		// must not.
		if !d.NeedsTarget && name != "ecc" && out.Cost > in.Budget()+1e-9 {
			t.Errorf("%s: cost %v exceeds budget %v", name, out.Cost, in.Budget())
		}
		if d.NeedsTarget && out.Achieved == nil {
			t.Errorf("%s: NeedsTarget descriptor returned no Achieved", name)
		}
	}
}

// TestBruteRejectsLargeInstances pins the registry's error channel: the
// exponential solver refuses instances it cannot enumerate, as a Run
// error rather than a panic or a bogus result.
func TestBruteRejectsLargeInstances(t *testing.T) {
	d, ok := Lookup("brute")
	if !ok {
		t.Fatal("brute not registered")
	}
	in := dataset.Synthetic(1, 2000, 800)
	if _, err := d.Run(context.Background(), in, Params{}); err == nil {
		t.Error("brute accepted a 2000-query instance")
	}
}
