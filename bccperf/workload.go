package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
)

// Workload names, as passed to --workload.
const (
	solveCold  = "solve-cold"
	serveHot   = "serve-hot"
	serveDrift = "serve-drift"
)

// workload fixes one traffic mix. Rates are constants, never derived at
// run time, so every run of a workload executes the same operation
// sequence for a given seed. They sit well below a third of the nominal
// capacity measured on the parent commit (nproc × 1000 / cpu_ms_per_op,
// nproc = 2): serve-hot at about a ninth, serve-drift at about an
// eighth. The sizing host loses a varying share of both vCPUs to steal,
// and at a third of capacity the tails moved by 27 to 58% between runs.
// Arrivals are paced (see arrivals), so a serving operation almost never
// shares the machine with another one.
type workload struct {
	name string
	// rate is the open-loop arrival rate in operations per second; 0
	// marks the closed loop of solve-cold.
	rate float64
	// plannedRate sets solve-cold's operation count: seconds × plannedRate
	// cold solves, about the number one caller completes in that time.
	plannedRate float64
	// limit is the latency limit slo_ok_ratio counts against.
	limit time.Duration
	// classes lists the operation classes in their fixed rotation; a class
	// listed k times has k shares.
	classes []string
}

var workloads = map[string]workload{
	// Offline planning: cold A^BCC solves on Private-like instances, the
	// solver core doing nearly all the work and HTTP, the cache and the
	// warm path none. Budgets come in two classes spread evenly within
	// Fig. 3b's range, low (250–550) and high (1500–2000), two to one.
	// Up to 550 a solve takes four residual rounds and about 250 ms on
	// every instance sized; from about 700 on it takes five and 230 to
	// 1060 ms depending on the instance. With budgets spread evenly over
	// 250–2000, p50 sat on that step and moved by 45% between seeds; now
	// p50 falls inside the low class and the tail inside the high one.
	solveCold: {name: solveCold, plannedRate: 2.0, limit: 3 * time.Second, classes: []string{"low", "low", "high"}},
	// Repeated plan lookups through the gateway: every measured request
	// is a cache hit on its affinity owner, so the codec, validation and
	// fingerprint path does all the work and the solver none. A hit costs
	// about 110 ms of CPU. At 5.5/s the gateway's auto hedge delay settled
	// on the 100 ms histogram bucket edge, and the hedges (each a cold
	// solve on the non-owner) fired 0 to 10 times per run and moved the
	// tail by 58% between seeds; at 4/s, 0 to 6 hedges still moved it by
	// 40 to 49%. At 2/s, paced, hits do not overlap, so few exceed the
	// delay.
	serveHot: {name: serveHot, rate: 2, limit: time.Second, classes: []string{"hit"}},
	// Incremental re-solves: each request is a 1%-drifted variant of a
	// base instance with its own budget and the base plan as warm_plan,
	// so every request is a cache miss, a repair, a warm solve, an IG1
	// floor check and a cache store. Both raise classes stay: warm A^BCC
	// is slower than cold at ×1.10 but several times faster at ×0.95.
	// Their shares are small, not equal: a raise10 operation costs about
	// 1.2 CPU-seconds on both cores, five times a cut, and slows every
	// operation that overlaps it, and raise2's warm cost is bimodal
	// across instances (about 45 to 470 ms, and up to a second). A 30 s
	// run holds 30 operations, so the tail is the 11th slowest; with one
	// operation of each raise class per run, which slows at most the next
	// operation, p50 and the tail both fall among cut operations, while
	// the raise classes still show in cpu_ms_per_op, in hedging and in the
	// traced warm-versus-cold timings. Consecutive operations take turns
	// over six bases: a cut costs 135 to 230 ms depending on the base, so
	// with one base per run that base alone would set p50.
	serveDrift: {name: serveDrift, rate: 1, limit: 3 * time.Second, classes: driftRotation()},
}

// Fixed shape of the generated inputs.
const (
	maxInFlight   = 2    // generator concurrency cap: nproc of the sizing host
	solverSeed    = 1    // A^BCC seed in every request and cold solve
	hotRequests   = 4    // distinct serve-hot requests the loop cycles over
	driftBases    = 6    // base instances serve-drift variants derive from, in turn
	driftBudget   = 1000 // budget of the drift base instances
	driftReplaced = 0.01 // share of a base's queries a variant replaces
)

// driftRotation is serve-drift's class rotation: 30 operations, one
// raise10, one raise2 and 28 cuts, the raise classes a third of a
// rotation apart.
func driftRotation() []string {
	r := make([]string, 30)
	for i := range r {
		r[i] = "cut"
	}
	r[10], r[20] = "raise10", "raise2"
	return r
}

// driftClasses are serve-drift's operation classes, and driftFactor each
// one's budget relative to its base.
var (
	driftClasses = []string{"cut", "raise2", "raise10"}
	driftFactor  = map[string]float64{"cut": 0.95, "raise2": 1.02, "raise10": 1.10}
)

// coldBudgets are solve-cold's budget range per class.
var coldBudgets = map[string][2]float64{"low": {250, 550}, "high": {1500, 2000}}

// hotBudgets are the serve-hot request budgets; a hit costs the same at
// any budget, and low budgets keep the cache fill short.
var hotBudgets = [hotRequests]float64{250, 300, 350, 400}

// subSeed derives an independent seed for one named input from the run
// seed, so adding an input never shifts the others.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(tag))
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

// coldOp is one solve-cold operation: a Private instance and its budget.
type coldOp struct {
	seed   int64
	budget float64
	class  string
}

// request is one distinct serving request before set-up completes it.
type request struct {
	instance []byte // JSON of the dataset.FileFormat, budget included
	class    string
	base     int // serve-drift: the base whose plan seeds it; -1 otherwise
}

// inputs is everything the seed fixes for one run.
type inputs struct {
	w       workload
	seconds int
	cold    []coldOp
	bases   [][]byte  // serve-drift base instances, solved during set-up
	reqs    []request // distinct serving requests
	sched   []time.Duration
	opReq   []int // request index of each serving operation
}

func (w workload) numOps(seconds int) int {
	if w.rate == 0 {
		return max(1, int(math.Round(float64(seconds)*w.plannedRate)))
	}
	return max(1, int(math.Round(float64(seconds)*w.rate)))
}

// generate builds a run's inputs from the seed alone.
func generate(w workload, seed int64, seconds int) (*inputs, error) {
	in := &inputs{w: w, seconds: seconds}
	n := w.numOps(seconds)
	switch w.name {
	case solveCold:
		// Within each class the budgets are evenly spaced; the seed
		// shuffles which operation gets which.
		byClass := map[string][]int{}
		for i := 0; i < n; i++ {
			c := w.classes[i%len(w.classes)]
			byClass[c] = append(byClass[c], i)
		}
		in.cold = make([]coldOp, n)
		for _, c := range []string{"low", "high"} {
			ops := byClass[c]
			rng := rand.New(rand.NewSource(subSeed(seed, "cold-"+c, 0)))
			lo, hi := coldBudgets[c][0], coldBudgets[c][1]
			for k, j := range rng.Perm(len(ops)) {
				b := lo + (hi-lo)*(float64(j)+0.5)/float64(len(ops))
				in.cold[ops[k]] = coldOp{seed: subSeed(seed, "cold", ops[k]), budget: math.Round(b), class: c}
			}
		}
		return in, nil
	case serveHot:
		for k := 0; k < hotRequests; k++ {
			body, err := json.Marshal(dataset.ToFormat(dataset.Private(subSeed(seed, "hot", k), hotBudgets[k])))
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, request{instance: body, class: "hit", base: -1})
		}
		cycle := rand.New(rand.NewSource(subSeed(seed, "hot-order", 0))).Perm(hotRequests)
		for i := 0; i < n; i++ {
			in.opReq = append(in.opReq, cycle[i%hotRequests])
		}
	case serveDrift:
		if err := generateDrift(in, seed, n); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	in.sched = arrivals(subSeed(seed, "arrivals", 0), n, time.Duration(seconds)*time.Second)
	return in, nil
}

// arrivals paces n operations over [0, span): operation i is due at a
// seeded point in the middle half of the i-th of n equal slots, so two
// consecutive operations are between half a slot and a slot and a half
// apart. The count, and so the tail percentile, is the same on every
// run. Poisson arrivals were tried first: at these rates about a fifth
// of the operations arrived while another was still running, and that
// overlapping share, a class of its own that varied with the seed, put
// the tail percentile on its boundary.
func arrivals(seed int64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	slot := float64(span) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(slot * (float64(i) + 0.25 + 0.5*rng.Float64()))
	}
	return out
}

// generateDrift builds the base instances and one drifted variant per
// operation: about 1% of the base's queries replaced by queries of a
// donor Private instance, and a budget of the base's times the class
// factor with a small per-variant jitter, so no two requests share a
// fingerprint.
func generateDrift(in *inputs, seed int64, n int) error {
	bases := make([]*driftBase, driftBases)
	for b := range bases {
		ff := dataset.ToFormat(dataset.Private(subSeed(seed, "drift-base", b), driftBudget))
		donor := dataset.ToFormat(dataset.Private(subSeed(seed, "drift-donor", b), driftBudget))
		bases[b] = newDriftBase(ff, donor)
		body, err := json.Marshal(ff)
		if err != nil {
			return err
		}
		in.bases = append(in.bases, body)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "drift", 0)))
	for i := 0; i < n; i++ {
		class := in.w.classes[i%len(in.w.classes)]
		b := i % driftBases
		budget := driftBudget * driftFactor[class] * (1 + 0.004*(rng.Float64()-0.5))
		body, err := json.Marshal(bases[b].variant(rng, math.Round(budget*100)/100))
		if err != nil {
			return err
		}
		in.reqs = append(in.reqs, request{instance: body, class: class, base: b})
		in.opReq = append(in.opReq, i)
	}
	return nil
}

// propKey is the canonical key of a property-name set.
func propKey(props []string) string {
	s := append([]string(nil), props...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// subsetKeys returns the key of every non-empty subset of props.
func subsetKeys(props []string) []string {
	var out []string
	for mask := 1; mask < 1<<len(props); mask++ {
		var sub []string
		for j, p := range props {
			if mask&(1<<j) != 0 {
				sub = append(sub, p)
			}
		}
		out = append(out, propKey(sub))
	}
	return out
}

// driftBase is a base instance prepared for drawing variants.
type driftBase struct {
	ff    dataset.FileFormat
	refs  map[string]int              // classifier key → base queries containing it
	costs map[string]dataset.FileCost // base prices, donor prices for the rest
	cand  []dataset.FileQuery         // donor queries the base lacks
}

func newDriftBase(ff, donor dataset.FileFormat) *driftBase {
	d := &driftBase{ff: ff, refs: map[string]int{}, costs: map[string]dataset.FileCost{}}
	have := make(map[string]bool, len(ff.Queries))
	for _, q := range ff.Queries {
		have[propKey(q.Props)] = true
		for _, k := range subsetKeys(q.Props) {
			d.refs[k]++
		}
	}
	for _, q := range donor.Queries {
		if !have[propKey(q.Props)] {
			d.cand = append(d.cand, q)
		}
	}
	for _, c := range donor.Costs {
		d.costs[propKey(c.Props)] = c
	}
	for _, c := range ff.Costs {
		d.costs[propKey(c.Props)] = c
	}
	return d
}

// variant replaces driftReplaced of the base's queries, at random
// positions, with donor queries the base lacks. Classifiers keep the
// base's price where it has one and take the donor's otherwise;
// classifiers of no remaining query are dropped, as dataset.ToFormat
// would.
func (d *driftBase) variant(rng *rand.Rand, budget float64) dataset.FileFormat {
	nq := len(d.ff.Queries)
	k := min(int(math.Round(float64(nq)*driftReplaced)), len(d.cand))
	out := dataset.FileFormat{Budget: budget, Queries: append([]dataset.FileQuery(nil), d.ff.Queries...)}
	pos := rng.Perm(nq)[:k]
	pick := rng.Perm(len(d.cand))[:k]
	delta := map[string]int{}
	for j := range pos {
		for _, key := range subsetKeys(out.Queries[pos[j]].Props) {
			delta[key]--
		}
		out.Queries[pos[j]] = d.cand[pick[j]]
		for _, key := range subsetKeys(out.Queries[pos[j]].Props) {
			delta[key]++
		}
	}
	for _, c := range d.ff.Costs {
		if key := propKey(c.Props); d.refs[key]+delta[key] > 0 {
			out.Costs = append(out.Costs, c)
		}
	}
	var added []string
	for key, n := range delta {
		if d.refs[key] == 0 && n > 0 {
			if _, priced := d.costs[key]; priced {
				added = append(added, key)
			}
		}
	}
	sort.Strings(added)
	for _, key := range added {
		out.Costs = append(out.Costs, d.costs[key])
	}
	return out
}

// body composes a POST /v1/solve body from an instance and an optional
// warm plan.
func body(instance []byte, warm [][]string) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"instance":`)
	b.Write(instance)
	b.WriteString(`,"algo":"abcc","seed":` + strconv.Itoa(solverSeed) + `,"include_plan":true`)
	if len(warm) > 0 {
		plan, err := json.Marshal(warm)
		if err != nil {
			return nil, err
		}
		b.WriteString(`,"warm_plan":`)
		b.Write(plan)
	}
	b.WriteString("}")
	return b.Bytes(), nil
}

// digest hashes everything the seed fixes: instances, budgets, classes,
// operation order and arrival schedule. Warm plans are outputs of set-up,
// not inputs, and stay out. solve-cold instances are hashed through
// their canonical fingerprints.
func (in *inputs) digest(coldFingerprints []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d\n", in.w.name, in.seconds)
	for i, op := range in.cold {
		fmt.Fprintf(h, "cold %d %d %v %s %s\n", i, op.seed, op.budget, op.class, coldFingerprints[i])
	}
	for _, b := range in.bases {
		h.Write(b)
	}
	for _, r := range in.reqs {
		fmt.Fprintf(h, "req %s %d\n", r.class, r.base)
		h.Write(r.instance)
	}
	for i, at := range in.sched {
		fmt.Fprintf(h, "op %d %d %d\n", i, in.opReq[i], int64(at))
	}
	return hex.EncodeToString(h.Sum(nil))
}
