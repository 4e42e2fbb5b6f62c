package obs

import (
	"io"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable, but series handed out by Registry.Counter are the normal way
// to get one.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) writeExposition(w io.Writer, name, labels string) error {
	return sampleLine(w, name, labels, float64(c.v.Load()))
}

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeExposition(w io.Writer, name, labels string) error {
	return sampleLine(w, name, labels, g.Value())
}

// valueFunc adapts a read-at-scrape-time function to a series
// (CounterFunc / GaugeFunc registrations).
type valueFunc func() float64

func (f valueFunc) writeExposition(w io.Writer, name, labels string) error {
	return sampleLine(w, name, labels, f())
}

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond knapsack calls to multi-second full solves.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value (Prometheus `le`
// semantics: upper bounds are inclusive); values above every bound land
// in the implicit +Inf bucket. Observe is lock-free.
type Histogram struct {
	uppers []float64
	counts []atomic.Uint64 // len(uppers)+1; last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-added
}

// NewHistogram returns a histogram over the given strictly ascending
// bucket upper bounds, outside any registry (a registry's Histogram
// method makes the exported kind).
func NewHistogram(uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	cp := append([]float64(nil), uppers...)
	return &Histogram{uppers: cp, counts: make([]atomic.Uint64, len(cp)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~16) and the slice is in
	// cache; a binary search costs more in branch misses at this size.
	i := 0
	for i < len(h.uppers) && v > h.uppers[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// it returns the upper bound of the first bucket at which the cumulative
// count reaches q of the total — the same upper-bound estimate a
// Prometheus histogram_quantile yields at bucket resolution. Values in
// the +Inf overflow bucket are reported as the largest finite bound.
// With no observations it returns 0, false. The bucket snapshot is taken
// the same way the exposition writer takes it, so a concurrent Observe
// can only shift the estimate by one sample, never tear it.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	if q <= 0 || q > 1 || len(h.uppers) == 0 {
		return 0, false
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0, false
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, upper := range h.uppers {
		cum += counts[i]
		if cum >= need {
			return upper, true
		}
	}
	return h.uppers[len(h.uppers)-1], true
}

func (h *Histogram) writeExposition(w io.Writer, name, labels string) error {
	// Snapshot the per-bucket counts first, then derive the total from
	// that same snapshot: `_count` and the +Inf bucket are always equal
	// and never torn against the buckets, even under concurrent
	// Observe calls. The float sum is read last and may trail by an
	// in-flight observation — the standard, Prometheus-tolerated skew.
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	sum := h.Sum()

	var cum uint64
	for i, upper := range h.uppers {
		cum += counts[i]
		le := `le="` + formatValue(upper) + `"`
		bl := le
		if labels != "" {
			bl = labels + "," + le
		}
		if err := sampleLine(w, name+"_bucket", bl, float64(cum)); err != nil {
			return err
		}
	}
	bl := `le="+Inf"`
	if labels != "" {
		bl = labels + "," + bl
	}
	if err := sampleLine(w, name+"_bucket", bl, float64(total)); err != nil {
		return err
	}
	if err := sampleLine(w, name+"_sum", labels, sum); err != nil {
		return err
	}
	return sampleLine(w, name+"_count", labels, float64(total))
}
