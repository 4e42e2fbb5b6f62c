// Golden tests for the CLI contract behind `bccsolve -algo abcc -seed N`:
// the same seed must reproduce the same plan bit for bit, across runs
// and across code motion that does not intend to change the search, and
// -warm-from must reproduce the cold answer. The pinned output below is
// the contract; update it deliberately when the solver itself changes.
package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// goldenWarmAbcc pins the -warm-from contract: seeding a solve with its
// own previous plan must repair every classifier, reproduce the exact
// cold answer, and say so. Normalized by normalizeSolveOutput; the
// cold run's output, which the test also compares, is the same pin
// without its first line.
const goldenWarmAbcc = `warm-from: 12 of 12 classifiers survived repair
abcc: utility=261.00 cost=59.00 budget=60.00 covered=8/40
{s3239} cost=7.00
{s6309} cost=0.00
{s3407} cost=6.00
{s4470} cost=4.00
{s6873} cost=6.00
{s9383} cost=4.00
{s801 s5759} cost=1.00
{s6892 s9863} cost=12.00
{s1454 s6492 s8589} cost=7.00
{s110 s5759 s6900 s8813} cost=6.00
{s1806 s3224 s4393 s9081 s9998} cost=6.00
{s1806 s4393 s8181 s9081 s9998} cost=0.00`

func TestWarmFromGolden(t *testing.T) {
	bin := buildSolveBinary(t)
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	if err := dataset.WriteFile(inst, dataset.Synthetic(5, 40, 60)); err != nil {
		t.Fatalf("writing instance: %v", err)
	}

	// Cold run writes the plan the warm run will seed from.
	plan := filepath.Join(dir, "plan.json")
	cold, err := exec.Command(bin, "-in", inst, "-algo", "abcc", "-seed", "42", "-v", "-plan", plan).CombinedOutput()
	if err != nil {
		t.Fatalf("cold bccsolve: %v\n%s", err, cold)
	}

	warm, err := exec.Command(bin, "-in", inst, "-algo", "abcc", "-seed", "42", "-v", "-warm-from", plan).CombinedOutput()
	if err != nil {
		t.Fatalf("warm bccsolve: %v\n%s", err, warm)
	}
	if got := normalizeSolveOutput(string(warm)); got != goldenWarmAbcc {
		t.Errorf("-warm-from output drifted from the golden pin.\ngot:\n%s\nwant:\n%s", got, goldenWarmAbcc)
	}

	// The warm answer is the cold answer: repair plus seeding changes
	// where the search starts, never what it returns here.
	if gotCold := normalizeSolveOutput(string(cold)); "warm-from: 12 of 12 classifiers survived repair\n"+gotCold != goldenWarmAbcc {
		t.Errorf("cold output does not match the warm pin.\ncold:\n%s", gotCold)
	}

	// A plan with no usable classifiers is an error, not a crash.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"classifiers":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-in", inst, "-warm-from", bad).CombinedOutput(); err == nil {
		t.Errorf("empty warm plan accepted:\n%s", out)
	}
}

var timeToken = regexp.MustCompile(` time=\S+`)

// normalizeSolveOutput strips the wall-clock token (the only
// nondeterministic field) and collapses alignment padding so the golden
// string stays readable.
func normalizeSolveOutput(out string) string {
	out = timeToken.ReplaceAllString(out, "")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, l := range lines {
		lines[i] = strings.Join(strings.Fields(l), " ")
	}
	return strings.Join(lines, "\n")
}

// buildSolveBinary compiles bccsolve into the test temp dir.
func buildSolveBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bccsolve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/bccsolve")
	cmd.Dir = solveRepoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bccsolve: %v\n%s", err, out)
	}
	return bin
}

func solveRepoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := string(bytes.TrimSpace(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}
