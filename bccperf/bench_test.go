package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
)

// pinnedDigests fix the inputs seed 1 generates for a 6-second run. A
// change here means the same seed no longer yields the same workload,
// which makes runs before and after the change incomparable.
var pinnedDigests = map[string]string{
	solveCold:  "85bbfa57a751fa08cf3f8068e7c782844ba251c636045d5d411a84383347dccd",
	serveHot:   "c6e6c94d8122c7bfa5d737d0fafbbe27fd46fecc2bcb6330cf8187c2c46b1cb6",
	serveDrift: "702dcbedd2e78f36093e0933c782b480760744c74e6c557bd305771f8655924f",
}

func digestFor(t *testing.T, name string, seed int64) string {
	t.Helper()
	in, err := generate(workloads[name], seed, 6)
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, op := range in.cold {
		fps = append(fps, dataset.Private(op.seed, op.budget).Fingerprint())
	}
	return in.digest(fps)
}

func TestWorkloadDigestPinned(t *testing.T) {
	for name, want := range pinnedDigests {
		got := digestFor(t, name, 1)
		if got != want {
			t.Errorf("%s: seed 1 digest %s, pinned %s", name, got, want)
		}
		if again := digestFor(t, name, 1); again != got {
			t.Errorf("%s: seed 1 generated two different workloads", name)
		}
		if other := digestFor(t, name, 2); other == got {
			t.Errorf("%s: seeds 1 and 2 generated the same workload", name)
		}
	}
}

func TestDriftVariantsAreValidAndDistinct(t *testing.T) {
	in, err := generate(workloads[serveDrift], 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, r := range in.reqs {
		var ff dataset.FileFormat
		if err := json.Unmarshal(r.instance, &ff); err != nil {
			t.Fatal(err)
		}
		inst, err := dataset.FromFormat(ff)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if fp := inst.Fingerprint(); seen[fp] {
			t.Errorf("variant %d repeats a fingerprint", i)
		} else {
			seen[fp] = true
		}
		if want := driftBudget * driftFactor[r.class]; math.Abs(inst.Budget()-want) > 0.003*want {
			t.Errorf("variant %d (%s): budget %v, want about %v", i, r.class, inst.Budget(), want)
		}
	}
}

// TestArrivalsPaced checks that consecutive serving operations are due
// between half a slot and a slot and a half apart, so that none arrives
// while a typical one is still running.
func TestArrivalsPaced(t *testing.T) {
	const n, span = 60, 30 * time.Second
	slot := span / n
	at := arrivals(3, n, span)
	for i, a := range at {
		if a < 0 || a >= span {
			t.Fatalf("op %d due at %v, outside [0, %v)", i, a, span)
		}
		if i > 0 {
			if gap := a - at[i-1]; gap < slot/2 || gap > 3*slot/2 {
				t.Errorf("ops %d and %d due %v apart, want %v to %v", i-1, i, gap, slot/2, 3*slot/2)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantV   float64
		wantPct float64
	}{
		{100, 90, 90},
		{45, 35, 100 * 35.0 / 45},
		{11, 1, 100 * 1.0 / 11},
		{5, 5, 100},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tail must sort
		}
		v, pct := tail(xs)
		if v != tc.wantV || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, v, pct, tc.wantV, tc.wantPct)
		}
		if tc.n > minBeyond {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond != minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.0, 4.4, 1.7}, [3]float64{1.7, 3.1, 7.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

// TestSelfTimesWithOverlappingHedge checks the split of one operation
// whose gateway fired a hedge that overlaps the primary call.
func TestSelfTimesWithOverlappingHedge(t *testing.T) {
	mk := func(id, parent int64, layer int, start, end int64) *span {
		return &span{Op: 1, ID: id, Parent: parent, layer: layer, Layer: layerNames[layer], Start: start, End: end}
	}
	spans := []*span{
		mk(1, 0, layerGen, 0, 100),
		mk(2, 1, layerGateway, 5, 95),
		mk(3, 2, layerCall, 10, 90), // primary
		mk(4, 2, layerCall, 40, 92), // hedge, overlapping the primary
		mk(5, 3, layerBackend, 12, 88),
		mk(6, 4, layerBackend, 42, 90),
		mk(7, 5, layerSolve, 20, 80),
	}
	root, wall, work := selfTimes(spans)
	if root == nil || root.ID != 1 {
		t.Fatalf("root %v, want span 1", root)
	}
	wantWall := layerNS{10, 8, 4, 18, 60}
	wantWork := layerNS{10, 8, 8, 64, 60}
	if wall != wantWall {
		t.Errorf("wall self %v, want %v", wall, wantWall)
	}
	if work != wantWork {
		t.Errorf("work %v, want %v", work, wantWork)
	}
	if wall.sum() != root.dur() {
		t.Errorf("wall self sums to %d, root lasts %d", wall.sum(), root.dur())
	}
	if work.sum() <= wall.sum() {
		t.Errorf("overlapping hedge must show as work beyond wall: work %d, wall %d", work.sum(), wall.sum())
	}
}

func TestOpenLoopLateness(t *testing.T) {
	const step = 100 * time.Millisecond
	sched := []time.Duration{0, 0, 0, 0, 3 * step}
	sent, done := openLoop(sched, 2, func(int) { time.Sleep(step) })
	wantLate := []time.Duration{0, 0, step, step, 0}
	wantLatency := []time.Duration{step, step, 2 * step, 2 * step, step}
	const slack = 40 * time.Millisecond
	for i := range sched {
		late, latency := sent[i]-sched[i], done[i]-sched[i]
		if late < wantLate[i] || late > wantLate[i]+slack {
			t.Errorf("op %d: sent %v late, want about %v", i, late, wantLate[i])
		}
		if latency < wantLatency[i] || latency > wantLatency[i]+slack {
			t.Errorf("op %d: latency %v from its scheduled send, want about %v", i, latency, wantLatency[i])
		}
	}
}

func TestRecomputeCatchesMismatch(t *testing.T) {
	b := model.NewBuilder()
	b.AddQuery(5, "a")
	b.AddQuery(3, "a", "b")
	b.SetCost(2, "a")
	b.SetCost(4, "b")
	b.SetCost(9, "a", "b")
	in := b.MustInstance(6)
	plan := [][]string{{"a"}, {"b"}}
	if err := recompute(in, plan, []float64{2, 4}, 8, 6); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, err := range map[string]error{
		"utility":      recompute(in, plan, nil, 9, 6),
		"cost":         recompute(in, plan, nil, 8, 5),
		"priced":       recompute(in, plan, []float64{2, 3}, 8, 6),
		"over budget":  recompute(in.WithBudget(5), plan, nil, 8, 6),
		"unknown prop": recompute(in, [][]string{{"z"}}, nil, 0, 0),
	} {
		if err == nil {
			t.Errorf("%s mismatch not detected", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := benchDef{}
	def.EndToEnd = append(def.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"latency_p50_ms", "ms", "lower", 0.1})
	recs := func(vals ...float64) []record {
		var out []record
		for _, v := range vals {
			out = append(out, record{Workload: serveHot, Result: result{Metrics: map[string]metric{"latency_p50_ms": {v, "ms"}}}})
		}
		return out
	}
	var out bytes.Buffer
	if code := compareRecords(&out, def, recs(100, 101, 99, 100), recs(102, 101, 103, 101)); code != 0 {
		t.Errorf("close medians judged apart:\n%s", out.String())
	}
	out.Reset()
	if code := compareRecords(&out, def, recs(100, 101, 99, 100), recs(130, 131, 129, 130)); code != 1 || !strings.Contains(out.String(), "B worse") {
		t.Errorf("a 30%% regression passed:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists equal to what the benchmark runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchDef
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	p := &pass{w: workloads[serveHot], win: &window{}, lat: []float64{1}, ok: []bool{true}, answered: []bool{true}}
	e2e := p.endToEnd()
	e2e["setup_s"] = metric{}
	if len(def.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, runs print %d", len(def.EndToEnd), len(e2e))
	}
	for _, m := range def.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || (m.Name != "setup_s" && got.Unit != m.Unit) {
			t.Errorf("end-to-end %s (%s) not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(def.PerLayer) != len(perLayerDefs) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, traced runs print %d", len(def.PerLayer), len(perLayerDefs))
	}
	for i := range def.PerLayer {
		if i < len(perLayerDefs) && (def.PerLayer[i].Name != perLayerDefs[i].name || def.PerLayer[i].Unit != perLayerDefs[i].unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i,
				def.PerLayer[i].Name, def.PerLayer[i].Unit, perLayerDefs[i].name, perLayerDefs[i].unit)
		}
	}
}
