// Package obs is the zero-third-party-dependency observability layer:
// a metrics registry (atomic counters, gauges, fixed-bucket histograms)
// rendered in the Prometheus text exposition format, a per-solve stage
// tracer (Recorder) threaded through the solver stack alongside the
// guard plumbing, and build-info helpers shared by the CLI tools.
//
// The registry is scrape-oriented: metric values live in lock-free
// atomics, and WritePrometheus takes a point-in-time snapshot in a
// stable order (families by name, series by label set), so the output
// is diffable and golden-testable. Families are created on demand and
// get-or-create is idempotent: asking for the same name+labels returns
// the same series, which is what lets the HTTP layer resolve a
// {route,code} series per request without pre-registration.
//
// Naming scheme: every metric this repository exports is prefixed
// "bcc_", with Prometheus unit conventions (_total for counters,
// _seconds for durations). The inventory lives in DESIGN.md §10.
//
// The tracer mirrors the nil-*Guard convention of internal/guard: a nil
// *Recorder is valid, disabled, and costs one branch per call with no
// allocation — cheap enough to leave the instrumentation permanently in
// the solver hot paths (verified by a testing.AllocsPerRun test).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the Prometheus type of a metric family.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Labels is one metric series' label set. A nil or empty map means the
// unlabeled series.
type Labels map[string]string

// renderLabels produces the canonical `k1="v1",k2="v2"` form with keys
// sorted, used both as the series map key and in the exposition output.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(ls[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escaping rules for
// label values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series is one labeled time series inside a family.
type series interface {
	// writeExposition appends the series' sample lines. name is the
	// family name, labels the rendered label set (may be empty).
	writeExposition(w io.Writer, name, labels string) error
}

type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]series // rendered labels -> series
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry. All methods are safe for concurrent use; the
// returned metric handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the series registered under name+labels, creating the
// family and/or series as needed. It panics when the name is reused
// with a different kind — that is a programming error, not a runtime
// condition.
func (r *Registry) lookup(name, help string, kind Kind, labels Labels, mk func() series) series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = mk()
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, KindCounter, labels, func() series { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name+labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, KindGauge, labels, func() series { return &Gauge{} }).(*Gauge)
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge for pre-existing atomic counters that are
// maintained elsewhere (e.g. the server's request counters).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, KindCounter, labels, func() series { return valueFunc(fn) })
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time (queue depths, goroutine counts, cache sizes, uptimes).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, KindGauge, labels, func() series { return valueFunc(fn) })
}

// Histogram returns the histogram series for name+labels, creating it
// with the given bucket upper bounds (ascending; +Inf is implicit) on
// first use. Later calls for an existing series ignore buckets.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, labels, func() series { return NewHistogram(buckets) }).(*Histogram)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// by label set, so output order is stable across scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		r.mu.Unlock()
		for i, s := range ss {
			if err := s.writeExposition(w, f.name, keys[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip representation, with infinities spelled out.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sampleLine writes one `name{labels} value` line.
func sampleLine(w io.Writer, name, labels string, v float64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	}
	return err
}
