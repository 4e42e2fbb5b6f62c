package model_test

import (
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestCostAllocs pins Instance.Cost and Instance.ClassifierIndex at no
// allocation, for classifiers priced through the default cost model, as
// on Private-like instances: MC3's cost oracle calls Cost for every new
// candidate.
func TestCostAllocs(t *testing.T) {
	in := dataset.Private(501, 1000)
	cls := in.Classifiers()
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		_ = in.Cost(cls[i%len(cls)].Props)
		_, _ = in.ClassifierIndex(cls[i%len(cls)].Props)
		i += 7
	})
	if allocs != 0 {
		t.Errorf("Instance.Cost and ClassifierIndex allocate %v per call pair, want none", allocs)
	}
}

// An instance is read from many goroutines at once (a cached instance
// serves concurrent solves), and its set index, unlike a Go map, has no
// check of its own against a concurrent write: the race detector must
// find none here.
func TestInstanceConcurrentReads(t *testing.T) {
	in := dataset.Private(7, 500)
	fp, fp2 := in.Fingerprint(), in.Fingerprint2()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range in.Classifiers() {
				if (i+g)%4 != 0 {
					continue
				}
				if ci, ok := in.ClassifierIndex(c.Props); !ok || ci != i {
					t.Errorf("ClassifierIndex(%v) = %d %v, want %d", c.Props, ci, ok, i)
					return
				}
				if got := in.Cost(c.Props); got != c.Cost {
					t.Errorf("Cost(%v) = %v, want %v", c.Props, got, c.Cost)
					return
				}
			}
			if in.Fingerprint() != fp || in.Fingerprint2() != fp2 {
				t.Error("a fingerprint changed under concurrent reads")
			}
		}(g)
	}
	wg.Wait()
}
