// Package loadgen drives concurrent load through a bcc service client
// and tallies what came back. It is the engine of cmd/bccload and of
// the chaos soak test: both need the same loop — N workers hammering
// /v1/solve (with an occasional batch), classifying every outcome, and
// folding per-worker tallies into one report — so it lives here rather
// than in package main where tests could not reach it.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Target is one service a load run drives: a name for the report (its
// base URL in bccload) and the client that reaches it.
type Target struct {
	Name   string
	Client *client.Client
}

// Config tunes a load run. Requests plus either Client or Targets are
// required.
type Config struct {
	// Client sends the traffic. Ignored when Targets is set.
	Client *client.Client
	// Targets, when non-empty, spreads the load round-robin across
	// several services (e.g. the gateway next to its backends, or two
	// gateway replicas) and adds per-target outcome counts to the report.
	Targets []Target
	// Requests is the workload, issued round-robin across workers. A few
	// distinct instances (SyntheticWorkload) exercise both cache hits and
	// real solves.
	Requests []api.SolveRequest
	// Concurrency is the worker count (default 4).
	Concurrency int
	// Duration bounds the run (default 2s); the context can end it
	// earlier.
	Duration time.Duration
	// BatchEvery makes every Nth logical op a /v1/solve/batch call of
	// BatchSize requests instead of a single solve (0 = never batch).
	BatchEvery int
	// BatchSize is the batch call's size (default 3).
	BatchSize int
	// OpDelay, when positive, spaces a worker's ops (open-loop-ish load
	// instead of a tight closed loop).
	OpDelay time.Duration
}

// TargetReport is one target's share of a multi-target run.
type TargetReport struct {
	Ops    uint64 `json:"ops"`
	OK     uint64 `json:"ok"`
	Failed uint64 `json:"failed"`
}

// Report tallies one load run. Maps are keyed by solve status
// ("complete", "deadline", "recovered", ...) and error class
// ("http-429", "http-5xx", "breaker-open", "transport", ...).
type Report struct {
	Ops        uint64            `json:"ops"`
	OK         uint64            `json:"ok"`
	Failed     uint64            `json:"failed"`
	BatchItems uint64            `json:"batch_items,omitempty"`
	ItemErrors uint64            `json:"item_errors,omitempty"`
	CacheHits  uint64            `json:"cache_hits"`
	Statuses   map[string]uint64 `json:"statuses,omitempty"`
	Errors     map[string]uint64 `json:"errors,omitempty"`
	// LatencyP50MS, LatencyP95MS and LatencyP99MS are quantiles of the
	// tallied operations' latencies, failures included, in milliseconds at
	// the resolution of obs.DefBuckets: each is the upper bound of the
	// bucket where the quantile falls (obs.Histogram.Quantile). They are
	// 0 when no operation was tallied.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// Targets breaks the outcomes down per target; present only when the
	// run drove more than one.
	Targets map[string]*TargetReport `json:"targets,omitempty"`
	Elapsed time.Duration            `json:"elapsed_ns"`
	Client  client.Stats             `json:"client"`
}

// tally is one worker's private counters, merged into the Report at the
// end so the hot loop never touches shared state.
type tally struct {
	ops, ok, failed, batchItems, itemErrors, cacheHits uint64
	statuses, errors                                   map[string]uint64
	targets                                            map[string]*TargetReport
}

func newTally() *tally {
	return &tally{
		statuses: map[string]uint64{},
		errors:   map[string]uint64{},
		targets:  map[string]*TargetReport{},
	}
}

// target returns the worker-private per-target row, creating it on
// first use.
func (t *tally) target(name string) *TargetReport {
	tr := t.targets[name]
	if tr == nil {
		tr = &TargetReport{}
		t.targets[name] = tr
	}
	return tr
}

func (t *tally) result(resp *api.SolveResponse) {
	t.ok++
	t.statuses[resp.Status]++
	if resp.Cached {
		t.cacheHits++
	}
}

func (t *tally) failure(err error) {
	t.failed++
	t.errors[Classify(err)]++
}

// Classify buckets an error for reporting: breaker fast-fails, HTTP
// status classes, caller deadline, and everything else as transport.
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, resilience.ErrOpen):
		return "breaker-open"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline"
	}
	var he *client.HTTPError
	if errors.As(err, &he) {
		switch {
		case he.StatusCode == http.StatusTooManyRequests:
			return "http-429"
		case he.StatusCode >= 500:
			return "http-5xx"
		default:
			return "http-4xx"
		}
	}
	return "transport"
}

// Run drives the configured load until Duration elapses or ctx ends,
// then reports. Every op gets a valid classification — a chaos run
// where requests vanish unanswered shows up as transport errors, never
// as a hang.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	targets := cfg.Targets
	if len(targets) == 0 {
		if cfg.Client == nil {
			return nil, errors.New("loadgen: Client or Targets is required")
		}
		targets = []Target{{Name: "default", Client: cfg.Client}}
	}
	for _, tg := range targets {
		if tg.Client == nil {
			return nil, fmt.Errorf("loadgen: target %q has no client", tg.Name)
		}
	}
	if len(cfg.Requests) == 0 {
		return nil, errors.New("loadgen: empty workload")
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	dur := cfg.Duration
	if dur <= 0 {
		dur = 2 * time.Second
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = 3
	}

	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()

	start := time.Now()
	latency := obs.NewHistogram(obs.DefBuckets)
	tallies := make([]*tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		t := newTally()
		tallies[w] = t
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for seq := worker; ctx.Err() == nil; seq++ {
				opStart := time.Now()
				t.ops++
				// Each op picks its target round-robin; a whole batch call
				// goes to one target so its per-target row stays meaningful.
				tg := targets[seq%len(targets)]
				tt := t.target(tg.Name)
				tt.Ops++
				if cfg.BatchEvery > 0 && int(t.ops)%cfg.BatchEvery == 0 {
					reqs := make([]api.SolveRequest, 0, batchSize)
					for i := 0; i < batchSize; i++ {
						reqs = append(reqs, cfg.Requests[(seq+i)%len(cfg.Requests)])
					}
					resp, err := tg.Client.SolveBatch(ctx, reqs)
					if err != nil {
						if ctx.Err() != nil {
							t.ops-- // cut off by the run clock, not a real outcome
							tt.Ops--
							continue
						}
						t.failure(err)
						tt.Failed++
					} else {
						tt.OK++
						t.ok++
						for _, item := range resp.Responses {
							t.batchItems++
							if item.Result != nil {
								t.statuses[item.Result.Status]++
								if item.Result.Cached {
									t.cacheHits++
								}
							} else {
								t.itemErrors++
								t.errors[fmt.Sprintf("item-%d", item.Code)]++
							}
						}
					}
				} else {
					req := cfg.Requests[seq%len(cfg.Requests)]
					resp, err := tg.Client.Solve(ctx, &req)
					switch {
					case err != nil && ctx.Err() != nil:
						// The run's own clock cut this op off mid-flight; it says
						// nothing about the server, drop it from the tally.
						t.ops--
						tt.Ops--
						continue
					case err != nil:
						t.failure(err)
						tt.Failed++
					default:
						t.result(resp)
						tt.OK++
					}
				}
				latency.Observe(time.Since(opStart).Seconds())
				if cfg.OpDelay > 0 {
					timer := time.NewTimer(cfg.OpDelay)
					select {
					case <-ctx.Done():
						timer.Stop()
					case <-timer.C:
					}
				}
			}
		}(w)
	}
	wg.Wait()

	rep := &Report{
		Statuses: map[string]uint64{},
		Errors:   map[string]uint64{},
		Elapsed:  time.Since(start),
		// The headline client stats come from the first target; a
		// multi-target run reads per-target outcomes from Targets instead.
		Client: targets[0].Client.Stats(),
	}
	// Quantile reads 0 with no observation, which the fields document.
	p50, _ := latency.Quantile(0.50)
	p95, _ := latency.Quantile(0.95)
	p99, _ := latency.Quantile(0.99)
	rep.LatencyP50MS, rep.LatencyP95MS, rep.LatencyP99MS = p50*1000, p95*1000, p99*1000
	for _, t := range tallies {
		rep.Ops += t.ops
		rep.OK += t.ok
		rep.Failed += t.failed
		rep.BatchItems += t.batchItems
		rep.ItemErrors += t.itemErrors
		rep.CacheHits += t.cacheHits
		for k, v := range t.statuses {
			rep.Statuses[k] += v
		}
		for k, v := range t.errors {
			rep.Errors[k] += v
		}
		if len(targets) > 1 {
			if rep.Targets == nil {
				rep.Targets = map[string]*TargetReport{}
			}
			for name, tt := range t.targets {
				agg := rep.Targets[name]
				if agg == nil {
					agg = &TargetReport{}
					rep.Targets[name] = agg
				}
				agg.Ops += tt.Ops
				agg.OK += tt.OK
				agg.Failed += tt.Failed
			}
		}
	}
	return rep, nil
}

// String renders the report for terminals (bccload's default output).
func (r *Report) String() string {
	var b strings.Builder
	secs := r.Elapsed.Seconds()
	fmt.Fprintf(&b, "ops=%d ok=%d failed=%d (%.1f ops/s over %.1fs)\n",
		r.Ops, r.OK, r.Failed, float64(r.Ops)/secs, secs)
	if r.BatchItems > 0 {
		fmt.Fprintf(&b, "batch items=%d item-errors=%d\n", r.BatchItems, r.ItemErrors)
	}
	fmt.Fprintf(&b, "cache hits=%d\n", r.CacheHits)
	fmt.Fprintf(&b, "latency p50=%gms p95=%gms p99=%gms\n", r.LatencyP50MS, r.LatencyP95MS, r.LatencyP99MS)
	writeMap(&b, "statuses", r.Statuses)
	writeMap(&b, "errors", r.Errors)
	if len(r.Targets) > 0 {
		names := make([]string, 0, len(r.Targets))
		for name := range r.Targets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tt := r.Targets[name]
			fmt.Fprintf(&b, "target %s: ops=%d ok=%d failed=%d\n", name, tt.Ops, tt.OK, tt.Failed)
		}
	}
	fmt.Fprintf(&b, "client: requests=%d retries=%d breaker=%s opens=%d open-rejects=%d\n",
		r.Client.Requests, r.Client.Retries, r.Client.Breaker.State,
		r.Client.Breaker.Opens, r.Client.BreakerOpenRejects)
	return b.String()
}

func writeMap(b *strings.Builder, name string, m map[string]uint64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%s:", name)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%d", k, m[k])
	}
	b.WriteByte('\n')
}

// SyntheticWorkload builds n distinct small instances (deterministic in
// seed) shaped like the repo's synthetic dataset family but tiny, so a
// load run exercises cache hits, real solves and distinct fingerprints
// without multi-second solve times.
func SyntheticWorkload(n int, seed int64) []api.SolveRequest {
	rng := rand.New(rand.NewSource(seed))
	props := []string{"wooden", "table", "running", "shoes", "red", "leather", "office", "garden"}
	reqs := make([]api.SolveRequest, 0, n)
	for i := 0; i < n; i++ {
		var ff dataset.FileFormat
		total := 0.0
		seen := map[string]bool{}
		for q, nq := 0, 3+rng.Intn(4); q < nq; q++ {
			a, b := rng.Intn(len(props)), rng.Intn(len(props))
			if a == b {
				b = (a + 1) % len(props)
			}
			if a > b {
				// Canonical order: {table,wooden} and {wooden,table} are the
				// same query, and the server rejects duplicates.
				a, b = b, a
			}
			qp := []string{props[a], props[b]}
			if key := qp[0] + "+" + qp[1]; seen[key] {
				continue
			} else {
				seen[key] = true
			}
			ff.Queries = append(ff.Queries, dataset.FileQuery{Props: qp, Utility: 1 + float64(rng.Intn(9))})
			cost := 1 + float64(rng.Intn(5))
			ff.Costs = append(ff.Costs, dataset.FileCost{Props: qp, Cost: cost})
			total += cost
		}
		// A budget around 60% of the total classifier cost keeps the choice
		// non-trivial: some plans fit, the best ones compete.
		ff.Budget = 1 + total*0.6
		reqs = append(reqs, api.SolveRequest{Instance: ff})
	}
	return reqs
}
