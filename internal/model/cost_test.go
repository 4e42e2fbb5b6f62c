package model_test

import (
	"testing"

	"repro/internal/dataset"
)

// TestCostAllocs pins Instance.Cost at one allocation, the classifier's
// key, for classifiers priced through the default cost model, as on
// Private-like instances: MC3's cost oracle calls Cost for every new
// candidate.
func TestCostAllocs(t *testing.T) {
	in := dataset.Private(501, 1000)
	cls := in.Classifiers()
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		_ = in.Cost(cls[i%len(cls)].Props)
		i += 7
	})
	if allocs > 1 {
		t.Errorf("Instance.Cost allocates %v per call, want at most 1", allocs)
	}
}
