// Package server is the HTTP solving service: a JSON API over the BCC
// solver façades with canonical instance fingerprinting, a solution
// cache with single-flight deduplication (internal/solvecache), a
// bounded worker pool with a bounded admission queue, per-request
// deadlines threaded into the anytime SolveCtx entry points, and
// load-shedding with 429 when the queue is full.
//
// Request flow for POST /v1/solve:
//
//	read body → SHA-256 → repeat memo hit? → canonical cache lookup → respond
//	otherwise: decode (api.DecodeBody) → build and validate
//	(dataset.FromFormat) → Fingerprint → cache lookup → single-flight
//	join or pool admission → SolveCtx under the request deadline →
//	respond (HTTP 200 even on deadline, carrying the anytime result with
//	status=deadline) → cache Complete results → memoize the body digest
//
// The repeat memo maps a body's digest to the parts of its canonical
// cache key, never to an answer, so a byte-identical repeat skips the
// decode, the instance build and the fingerprint while the canonical
// cache stays the only store of answers. A body seen for the first time
// takes the ingest path, built for ~440 KB bodies (DESIGN.md §9 "The
// ingest path"): a one-pass schema decoder that falls back to
// encoding/json outside the JSON subset it handles, an instance build
// that validates on interned property IDs and enumerates subsets in
// scratch, and fingerprints that sort rows by per-call name ranks
// instead of by allocated canonical strings.
//
// Only Complete results are cached: a deadline-truncated plan is valid
// but inferior, and must not shadow the full solution for later callers.
//
// Observability (internal/obs): GET /metrics serves the Prometheus
// exposition — per-route/status HTTP latency histograms, per-algorithm
// solve histograms, pool/queue/cache/goroutine gauges — and
// DebugHandler carries net/http/pprof for the opt-in debug listener.
// GET /v1/statz reports the same counters as one consistent JSON
// snapshot plus build info. The metric inventory is DESIGN.md §10.
package server

import (
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	bcc "repro"
	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/solvecache"
)

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the solver pool size (default: 4).
	Workers int
	// Queue is the admission queue capacity (default: 64). A request
	// arriving with all workers busy and the queue full is answered 429.
	Queue int
	// ShedTierDepth enables queue-pressure tier shedding: when the
	// admission queue is deeper than this many waiting solves, a request
	// for the exact tier (algo=abcc) is served by the fast approximate
	// tier (algo=submod) instead of queueing behind the backlog. The
	// response still reports the requested algo, with algo_served naming
	// what actually ran. 0 (the default) disables shedding; a value >=
	// Queue never triggers (the queue 429s first). Meaningful values sit
	// well below Queue.
	ShedTierDepth int
	// CacheSize is the solution cache capacity in entries (default 1024;
	// negative disables caching, single-flight still applies).
	CacheSize int
	// CacheTTL bounds the life of a cache entry (default 15m; <= 0 means
	// no expiry).
	CacheTTL time.Duration
	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps any requested deadline (default 2m).
	MaxDeadline time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatch caps the number of requests in one batch (default 64).
	MaxBatch int
	// BackendID is this process's stable identity, sent on every response
	// as the X-BCC-Backend header and reported in /v1/statz so affinity
	// routing through bccgate is debuggable end to end. Empty means a
	// generated "<hostname>-<pid>-<4 random hex>" ID.
	BackendID string

	// JobWorkers, JobMaxJobs, JobCheckpointInterval, JobDefaultDeadline
	// and JobMaxDeadline tune the async job subsystem once OpenJobs is
	// called; zero values take the internal/jobs defaults. They are
	// inert while jobs are disabled.
	JobWorkers            int
	JobMaxJobs            int
	JobCheckpointInterval time.Duration
	JobDefaultDeadline    time.Duration
	JobMaxDeadline        time.Duration

	// PipelineWindow, PipelineRetention, PipelineMaxBacklog,
	// PipelineAlgo, PipelineBudget and PipelineSeed tune the continuous
	// workload pipeline once OpenPipeline is called; zero values take the
	// internal/pipeline defaults. Inert while the pipeline is disabled.
	PipelineWindow     time.Duration
	PipelineRetention  time.Duration
	PipelineMaxBacklog int64
	PipelineAlgo       string
	PipelineBudget     float64
	PipelineSeed       int64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 15 * time.Minute
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.BackendID == "" {
		c.BackendID = defaultBackendID()
	}
	return c
}

// defaultBackendID builds the generated per-process identity. The random
// suffix distinguishes restarts of the same binary on the same host, so
// a gateway's statz never conflates the old and new incarnation.
func defaultBackendID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "bcc"
	}
	var suffix [2]byte
	if _, err := crand.Read(suffix[:]); err != nil {
		// A broken entropy source must not stop the server; pid alone
		// still distinguishes processes on one host.
		return fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return fmt.Sprintf("%s-%d-%x", host, os.Getpid(), suffix)
}

// Server wires the cache, the worker pool and the HTTP handlers. Create
// one with New, mount Handler, and Close it to drain on shutdown.
type Server struct {
	cfg   Config
	cache *solvecache.Cache
	pool  *Pool
	start time.Time
	reg   *obs.Registry
	// jobs is the async solve-job manager, nil until OpenJobs. Set
	// before the handler serves traffic (cmd/bccserver calls OpenJobs
	// during startup); handlers answer 501 while nil.
	jobs *jobs.Manager
	// pipe is the continuous workload pipeline, nil until OpenPipeline
	// (which requires OpenJobs); handlers answer 501 while nil.
	pipe *pipeline.Pipeline
	// repeats maps the SHA-256 of a /v1/solve body that answered 200 to
	// its *repeatKey. It is bounded by the cache's own size and TTL, so
	// it is off whenever caching is.
	repeats *solvecache.Cache

	closeOnce sync.Once

	requests        atomic.Uint64 // solve requests admitted to solveOne (batch items count)
	solves          atomic.Uint64 // underlying solver executions on the pool
	rejected        atomic.Uint64 // 429 load-shed answers
	shedTier        atomic.Uint64 // exact-tier requests downgraded to the fast tier
	repeatAnswers   atomic.Uint64 // requests answered through the body-digest repeat memo
	badRequests     atomic.Uint64 // 4xx validation failures
	deadlineResults atomic.Uint64 // 200 answers with a non-complete status
	inflight        atomic.Int64  // solver executions running on the pool right now
	panics          atomic.Uint64 // handler/worker panics contained into responses
	draining        atomic.Bool   // BeginDrain called; healthz answers 503

	// Incremental re-solve counters (internal/incr; see incr.go).
	incrWarmRequest    atomic.Uint64 // warm solves seeded by a request WarmPlan
	incrWarmSibling    atomic.Uint64 // warm solves seeded from a near-miss cache neighbor
	incrSiblingHits    atomic.Uint64 // sibling index lookups that found a neighbor
	incrFloorFallbacks atomic.Uint64 // warm results under the IG1 floor, answered with the IG1 plan

	// Snapshot persistence counters (SaveSnapshot / RestoreSnapshot).
	snapSaves      atomic.Uint64
	snapSaveErrors atomic.Uint64
	snapRestored   atomic.Uint64 // entries restored across all loads
	snapLoadErrors atomic.Uint64
	snapLastUnixNS atomic.Int64 // wall clock of the last successful save; 0 = never

	// solveHists tracks every bcc_solve_seconds series this server has
	// created, so the shedding advice can aggregate recent solve latency
	// across algos/statuses without scraping the exposition text.
	solveHistMu sync.Mutex
	solveHists  []*obs.Histogram

	// http instruments every route (bcc_http_request_seconds and
	// bcc_http_requests_total by route and status, panic containment,
	// the X-BCC-Backend header).
	http api.Instrumentation
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   solvecache.New(cfg.CacheSize, cfg.CacheTTL),
		repeats: solvecache.New(cfg.CacheSize, cfg.CacheTTL),
		pool:    NewPool(cfg.Workers, cfg.Queue),
		start:   time.Now(),
		reg:     obs.NewRegistry(),
	}
	// The near-miss (sibling) index: every cached response is tagged by
	// its bccfp2/1 hash + algo, and Import re-tags, so a bccsnap restore
	// rebuilds the index from the persisted Fingerprint2 fields.
	s.cache.SetTagger(siblingTag)
	s.http = api.Instrumentation{
		Registry: s.reg,
		Latency:  "bcc_http_request_seconds", LatencyHelp: "HTTP request latency by route and status.",
		Requests: "bcc_http_requests_total", RequestsHelp: "HTTP requests by route and status.",
		Panics:  &s.panics,
		Backend: cfg.BackendID,
	}
	s.initMetrics()
	s.initIncrMetrics()
	return s
}

// Registry exposes the metrics registry (tests, and embedders that want
// to add their own series next to the server's).
func (s *Server) Registry() *obs.Registry { return s.reg }

// BackendID returns this process's stable identity — the value of every
// response's X-BCC-Backend header.
func (s *Server) BackendID() string { return s.cfg.BackendID }

// Close stops admission and drains in-flight and queued solves. It
// implies BeginDrain, so a health check racing a shutdown sees 503.
// Jobs drain first: each in-flight job checkpoints and is persisted
// back to queued so the next process resumes it.
func (s *Server) Close() {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		// The pipeline stops before the job manager: its scheduler may be
		// mid-await on a job, and the in-flight window must persist before
		// jobs checkpoint and requeue.
		if s.pipe != nil {
			s.pipe.Close()
		}
		if s.jobs != nil {
			s.jobs.Close()
		}
		s.pool.Close()
	})
}

// BeginDrain flips /v1/healthz to 503 so load balancers stop routing
// new traffic, while the API keeps answering requests already arriving.
// cmd/bccserver calls it when the shutdown signal lands, before the
// listener stops accepting.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Cache exposes the solution cache (tests and the warm-up path).
func (s *Server) Cache() *solvecache.Cache { return s.cache }

// Handler returns the route table. Every route is instrumented with
// per-route/status latency histograms; GET /metrics serves the
// Prometheus exposition (pprof lives on the separate DebugHandler).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.http.Instrument("/v1/solve", s.handleSolve))
	mux.HandleFunc("POST /v1/solve/batch", s.http.Instrument("/v1/solve/batch", s.handleBatch))
	mux.HandleFunc("POST /v1/jobs", s.http.Instrument("/v1/jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", s.http.Instrument("/v1/jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.http.Instrument("/v1/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.http.Instrument("/v1/jobs/{id}/result", s.handleJobResult))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.http.Instrument("/v1/jobs/{id}/cancel", s.handleJobCancel))
	mux.HandleFunc("POST /v1/ingest", s.http.Instrument("/v1/ingest", s.handleIngest))
	mux.HandleFunc("GET /v1/plan/current", s.http.Instrument("/v1/plan/current", s.handlePlanCurrent))
	mux.HandleFunc("GET /v1/cache/entry", s.http.Instrument("/v1/cache/entry", s.handleCacheEntry))
	mux.HandleFunc("GET /v1/healthz", s.http.Instrument("/v1/healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/statz", s.http.Instrument("/v1/statz", s.handleStatz))
	mux.HandleFunc("GET /metrics", s.http.Instrument("/metrics", s.handleMetrics))
	return mux
}

// errQueueFull is the sentinel mapped to HTTP 429.
var errQueueFull = errorf(http.StatusTooManyRequests, "server overloaded: worker queue full, retry later")

// Tier shedding downgrades the exact tier to the fast approximate tier
// under queue pressure (Config.ShedTierDepth). The downgrade runs
// through the same registry path as a direct submod request and the
// cache is keyed by the algorithm that actually ran, so a shed answer
// can never shadow a real abcc solution — it lands in (and is served
// from) the submod entry.
const (
	shedFromAlgo = "abcc"
	shedToAlgo   = "submod"
)

// prepareSolve validates a request and materializes the instance: algo
// selection, gmc3 target check, dataset parsing, budget override,
// canonical fingerprint. Shared by the synchronous Solve path and the
// async job path so both reject exactly the same inputs.
func (s *Server) prepareSolve(req *SolveRequest) (*bcc.Instance, string, string, *Error) {
	algoName := req.Algo
	if algoName == "" {
		algoName = "abcc"
	}
	if err := algo.CheckServable(algoName, req.Target); err != nil {
		return nil, "", "", errorf(http.StatusBadRequest, "%v", err)
	}
	in, err := dataset.FromFormat(req.Instance)
	if err != nil {
		return nil, "", "", errorf(http.StatusBadRequest, "invalid instance: %v", err)
	}
	if req.Budget != nil {
		b := *req.Budget
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, "", "", errorf(http.StatusBadRequest, "invalid budget override %v", b)
		}
		in = in.WithBudget(b)
	}
	return in, algoName, in.Fingerprint(), nil
}

// Solve runs one request through the full service path (cache,
// single-flight, pool, deadline). It is the programmatic form of
// POST /v1/solve, used by the HTTP handler, the batch handler, and the
// cache warm-up in cmd/bccserver.
func (s *Server) Solve(parent context.Context, req *SolveRequest) (*SolveResponse, *Error) {
	s.requests.Add(1)
	start := time.Now()
	// Chaos hook at admission: armed delays simulate a slow front door,
	// armed panics are contained by the handler middleware into a JSON
	// 500 (and by recoverBatchItem for batch items).
	guard.Inject("server.admit")

	in, requested, fp, apiErr := s.prepareSolve(req)
	if apiErr != nil {
		s.badRequests.Add(1)
		return nil, apiErr
	}
	// Decided per request at admission, before the cache key is formed,
	// so the key names the algorithm that will actually run.
	served := s.tierFor(requested)
	if served != requested {
		s.shedTier.Add(1)
	}
	key := cacheKey(fp, served, req)

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(parent, deadline)
	defer cancel()

	lead := func() (any, bool, error) {
		resCh := make(chan *SolveResponse, 1)
		admitted := s.pool.TrySubmit(func() {
			// The worker must produce exactly one response no matter
			// what: a panic below (a solver bug outside the guard's
			// containment, or an armed dequeue fault) is folded into a
			// status=recovered answer so the waiting request never
			// hangs and the worker goroutine survives.
			answered := false
			defer func() {
				s.inflight.Add(-1)
				if p := recover(); p != nil {
					s.panics.Add(1)
					if !answered {
						resCh <- recoveredResponse(fp, served, in, p)
					}
				}
			}()
			s.inflight.Add(1)
			guard.Inject("server.pool.dequeue")
			t0 := time.Now()
			resp := s.runWarmSolve(ctx, in, served, req, fp, key)
			s.observeSolve(served, resp.Status, time.Since(t0).Seconds())
			answered = true
			resCh <- resp
		})
		if !admitted {
			return nil, false, errQueueFull
		}
		s.solves.Add(1)
		resp := <-resCh
		// Cache only full solves: a truncated anytime plan must not
		// shadow the complete solution for later identical requests.
		return resp, resp.Status == bcc.Complete.String(), nil
	}

	var (
		value   any
		outcome solvecache.Outcome
		runErr  error
	)
	if req.NoCache {
		value, _, runErr = lead()
		outcome = solvecache.Miss
	} else {
		value, outcome, runErr = s.cache.Do(ctx, key, lead)
	}

	if errors.Is(runErr, context.DeadlineExceeded) || errors.Is(runErr, context.Canceled) {
		// A waiter whose own context ended while it shared another
		// request's solve answers from a solve of its own on that
		// expired context: the solver's anytime plan, which for a warm
		// request the registry holds to the IG1 floor. The leader still
		// completes, and caches its result for the next caller.
		value, outcome, runErr = s.runWarmSolve(ctx, in, served, req, fp, key), solvecache.Miss, nil
	}
	if runErr != nil {
		var apiErr *Error
		if errors.As(runErr, &apiErr) {
			if apiErr == errQueueFull {
				s.rejected.Add(1)
				// Shed with advice: a fresh Error per rejection, carrying
				// the Retry-After the pressure model computed right now.
				return nil, s.shedError()
			}
			return nil, apiErr
		}
		return nil, errorf(http.StatusInternalServerError, "solve failed: %v", runErr)
	}

	tmpl, ok := value.(*SolveResponse)
	if !ok || tmpl == nil {
		return nil, errorf(http.StatusInternalServerError, "solve produced no result")
	}
	return s.answer(tmpl, requested, served, outcome, req.IncludePlan, start), nil
}

// tierFor is the tier-shedding decision: with a deep backlog, an
// exact-tier request is answered from the fast tier now rather than
// queueing behind the backlog. It returns the algorithm to serve.
func (s *Server) tierFor(requested string) string {
	if s.cfg.ShedTierDepth > 0 && requested == shedFromAlgo && s.pool.QueueDepth() > s.cfg.ShedTierDepth {
		return shedToAlgo
	}
	return requested
}

// answer makes one request's response from a shared template (a cached,
// shared or freshly solved answer). The template is copied before any
// per-request field is set; its classifier slice is shared read-only.
func (s *Server) answer(tmpl *SolveResponse, requested, served string, outcome solvecache.Outcome, includePlan bool, start time.Time) *SolveResponse {
	resp := *tmpl
	if served != requested {
		// The cached template is a pure fast-tier answer (Algo=submod);
		// only this request's copy is marked as a downgrade.
		resp.Algo = requested
		resp.AlgoServed = served
	}
	resp.Cached = outcome == solvecache.Hit
	resp.Shared = outcome == solvecache.Shared
	if !includePlan {
		resp.Classifiers = nil
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	if resp.Status != bcc.Complete.String() {
		s.deadlineResults.Add(1)
	}
	return &resp
}

// repeatKey is what the first answer to a /v1/solve body worked out
// about it: the parts of its canonical cache key and whether it asked
// for the plan. A byte-identical body carries the same values.
type repeatKey struct {
	fp          string
	algo        string // requested, after the abcc default
	seed        int64
	target      float64
	includePlan bool
}

// solveRepeat answers a byte-identical repeat of a body that answered
// 200 before, doing what Solve does for a cache hit and in the same
// order: the admission fault point, the shed decision, the cache fault
// point and the canonical lookup. It skips only the decode, the
// instance build and the fingerprint, whose results k holds. It returns
// nil when the canonical entry is gone (evicted, expired, or never
// stored); the caller then takes Solve's path.
func (s *Server) solveRepeat(k *repeatKey) *SolveResponse {
	start := time.Now()
	guard.Inject("server.admit")
	served := s.tierFor(k.algo)
	guard.Inject("solvecache.get")
	v, ok := s.cache.Get(api.CacheKey(k.fp, served, k.seed, k.target))
	if !ok {
		return nil
	}
	tmpl, _ := v.(*SolveResponse)
	if tmpl == nil {
		return nil
	}
	s.requests.Add(1)
	s.repeatAnswers.Add(1)
	if served != k.algo {
		s.shedTier.Add(1)
	}
	return s.answer(tmpl, k.algo, served, solvecache.Hit, k.includePlan, start)
}

// observeSolve records one solver execution in the per-algo/status
// latency histogram and remembers the series handle so the shedding
// advice can aggregate over every series created so far.
func (s *Server) observeSolve(algo, status string, seconds float64) {
	h := s.reg.Histogram("bcc_solve_seconds", "Solver execution time by algorithm and final status.",
		obs.Labels{"algo": algo, "status": status}, solveBuckets)
	s.solveHistMu.Lock()
	seen := false
	for _, have := range s.solveHists {
		if have == h {
			seen = true
			break
		}
	}
	if !seen {
		s.solveHists = append(s.solveHists, h)
	}
	s.solveHistMu.Unlock()
	h.Observe(seconds)
}

// avgSolveSeconds aggregates mean solve latency across every
// bcc_solve_seconds series (all algos and statuses). It reports ok =
// false before the first completed solve.
func (s *Server) avgSolveSeconds() (float64, bool) {
	s.solveHistMu.Lock()
	hists := append([]*obs.Histogram(nil), s.solveHists...)
	s.solveHistMu.Unlock()
	var count uint64
	var sum float64
	for _, h := range hists {
		count += h.Count()
		sum += h.Sum()
	}
	if count == 0 {
		return 0, false
	}
	return sum / float64(count), true
}

// retryAfterSeconds is the adaptive shedding advice: the estimated time
// to drain the work already ahead of a new arrival — (queued + running)
// solves spread over the workers, each taking the observed mean solve
// latency — clamped to [1s, 60s] and rounded up to whole seconds, the
// granularity the Retry-After header speaks.
func (s *Server) retryAfterSeconds() int {
	avg, ok := s.avgSolveSeconds()
	if !ok {
		return 1 // no history yet: advise the minimum, not a guess
	}
	pool := s.pool.Snapshot()
	ahead := float64(pool.QueueDepth) + float64(s.inflight.Load())
	secs := (ahead + 1) * avg / float64(pool.Workers)
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return n
}

// shedError builds the 429 answer for a full queue, carrying the
// current Retry-After advice in both the JSON body and (via writeError)
// the HTTP header.
func (s *Server) shedError() *Error {
	e := errorf(http.StatusTooManyRequests, "server overloaded: worker queue full, retry later")
	e.RetryAfterSeconds = s.retryAfterSeconds()
	return e
}

// recoveredResponse is the answer for a solve whose worker panicked
// outside the solver guard's own containment: the trivially feasible
// empty plan, status=recovered, with the panic recorded as the solver
// error — same contract as the in-solver degradation ladder's floor.
func recoveredResponse(fp, algo string, in *bcc.Instance, p any) *SolveResponse {
	return &SolveResponse{
		Fingerprint: fp,
		Algo:        algo,
		Status:      bcc.Recovered.String(),
		Budget:      in.Budget(),
		Queries:     in.NumQueries(),
		SolverError: fmt.Sprintf("recovered panic on pool worker: %v", p),
	}
}

// cacheKey extends the instance fingerprint with every request parameter
// that changes the answer. The format (api.CacheKey) is shared with the
// gateway's peer-fill lookups; deadlines and warm plans are deliberately
// excluded — they change how/where we search, not what the full answer
// is, and truncated or floor-violating results are never stored.
func cacheKey(fp, algo string, req *SolveRequest) string {
	return api.CacheKey(fp, algo, req.Seed, req.Target)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, apiErr := api.ReadBody(w, r, s.cfg.MaxBodyBytes)
	if apiErr != nil {
		s.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	// SHA-256, not a faster non-cryptographic hash: a collision would
	// hand one caller the answer to another caller's body.
	sum := sha256.Sum256(body)
	digest := string(sum[:])
	if k, ok := s.repeats.Get(digest); ok {
		if resp := s.solveRepeat(k.(*repeatKey)); resp != nil {
			api.WriteJSON(w, http.StatusOK, resp)
			return
		}
	}
	var req SolveRequest
	if apiErr := api.DecodeBody(body, &req); apiErr != nil {
		s.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	resp, apiErr := s.Solve(r.Context(), &req)
	if apiErr != nil {
		api.WriteError(w, apiErr)
		return
	}
	if !req.NoCache {
		// Solve answers with the request's fingerprint and the algorithm
		// it asked for (after the abcc default), even when shed.
		s.repeats.Put(digest, &repeatKey{
			fp: resp.Fingerprint, algo: resp.Algo,
			seed: req.Seed, target: req.Target, includePlan: req.IncludePlan,
		})
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if apiErr := api.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &batch); apiErr != nil {
		s.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	if len(batch.Requests) == 0 {
		s.badRequests.Add(1)
		api.WriteError(w, errorf(http.StatusBadRequest, "batch has no requests"))
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		s.badRequests.Add(1)
		api.WriteError(w, errorf(http.StatusBadRequest, "batch of %d exceeds the %d-request cap", len(batch.Requests), s.cfg.MaxBatch))
		return
	}
	// Items run concurrently; the pool bounds actual solver parallelism
	// and identical items collapse through single-flight.
	items := make([]BatchItem, len(batch.Requests))
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// These goroutines are outside net/http's per-request panic
			// recovery: a contained failure answers the one item, not
			// the process.
			defer func() {
				if p := recover(); p != nil {
					s.panics.Add(1)
					items[i] = BatchItem{
						Error: fmt.Sprintf("internal panic: %v", p),
						Code:  http.StatusInternalServerError,
					}
				}
			}()
			resp, apiErr := s.Solve(r.Context(), &batch.Requests[i])
			if apiErr != nil {
				items[i] = BatchItem{Error: apiErr.Msg, Code: apiErr.Code, RetryAfterSeconds: apiErr.RetryAfterSeconds}
				return
			}
			items[i] = BatchItem{Result: resp}
		}(i)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, BatchResponse{Responses: items})
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 once
// draining so routers take the instance out of rotation while in-flight
// requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SnapshotStats is the /v1/statz view of the crash-safe cache
// persistence, captured as one struct (see Server.snapshotStats).
type SnapshotStats struct {
	// Saves / SaveErrors count SaveSnapshot outcomes.
	Saves      uint64 `json:"saves"`
	SaveErrors uint64 `json:"save_errors"`
	// RestoredEntries counts cache entries brought back by
	// RestoreSnapshot across all loads; LoadErrors counts rejected
	// (missing, corrupt, version-mismatched) snapshot files.
	RestoredEntries uint64 `json:"restored_entries"`
	LoadErrors      uint64 `json:"load_errors"`
	// LastSaveUnixMS is the wall clock of the last successful save
	// (0 = never); AgeSeconds is derived from it (-1 = never).
	LastSaveUnixMS int64   `json:"last_save_unix_ms"`
	AgeSeconds     float64 `json:"age_seconds"`
}

// Statz is the GET /v1/statz body.
type Statz struct {
	BackendID       string           `json:"backend_id"`
	UptimeSeconds   float64          `json:"uptime_seconds"`
	Goroutines      int              `json:"goroutines"`
	Build           obs.Build        `json:"build"`
	Workers         int              `json:"workers"`
	QueueCapacity   int              `json:"queue_capacity"`
	QueueDepth      int              `json:"queue_depth"`
	InflightSolves  int64            `json:"inflight_solves"`
	Requests        uint64           `json:"requests"`
	Solves          uint64           `json:"solves"`
	Rejected        uint64           `json:"rejected"`
	ShedTier        uint64           `json:"shed_tier"`
	RepeatAnswers   uint64           `json:"repeat_answers"`
	BadRequests     uint64           `json:"bad_requests"`
	DeadlineResults uint64           `json:"deadline_results"`
	PanicsRecovered uint64           `json:"panics_recovered"`
	Draining        bool             `json:"draining"`
	RetryAfterHint  int              `json:"retry_after_hint_seconds"`
	Cache           solvecache.Stats `json:"cache"`
	Incr            IncrStats        `json:"incr"`
	Snapshot        SnapshotStats    `json:"snapshot"`
	// Jobs is present once OpenJobs has enabled the async subsystem.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
	// Pipeline is present once OpenPipeline has enabled the continuous
	// workload pipeline.
	Pipeline *pipeline.Stats `json:"pipeline,omitempty"`
}

// snapshot captures every statz field in one pass, in an order that
// preserves the counters' natural invariants under concurrent updates:
// each derived counter (solves, deadline results, ...) is read before
// the counter that dominates it (requests), so a statz response can
// never report solves > requests even when a request lands mid-read.
// The pool and the cache are each captured through their own
// single-snapshot accessors for the same reason.
func (s *Server) snapshot() Statz {
	st := Statz{
		BackendID:  s.cfg.BackendID,
		Goroutines: runtime.NumGoroutine(),
		Build:      obs.ReadBuild(),
		Cache:      s.cache.Stats(),
	}
	pool := s.pool.Snapshot()
	st.Workers = pool.Workers
	st.QueueCapacity = pool.QueueCapacity
	st.QueueDepth = pool.QueueDepth
	st.InflightSolves = s.inflight.Load()
	// Numerators before their denominator.
	st.Solves = s.solves.Load()
	st.Rejected = s.rejected.Load()
	st.ShedTier = s.shedTier.Load()
	st.RepeatAnswers = s.repeatAnswers.Load()
	st.BadRequests = s.badRequests.Load()
	st.DeadlineResults = s.deadlineResults.Load()
	st.PanicsRecovered = s.panics.Load()
	st.Requests = s.requests.Load()
	st.Incr = s.incrStats()
	st.Draining = s.draining.Load()
	st.RetryAfterHint = s.retryAfterSeconds()
	st.Snapshot = s.snapshotStats()
	if s.jobs != nil {
		js := s.jobs.Stats()
		st.Jobs = &js
	}
	if s.pipe != nil {
		st.Pipeline = s.pipe.Stats()
	}
	st.UptimeSeconds = time.Since(s.start).Seconds()
	return st
}

// Statz returns the single-snapshot operational counters — the
// programmatic form of GET /v1/statz, used by embedders (cmd/bccload's
// chaos mode) that hold the *Server directly.
func (s *Server) Statz() Statz { return s.snapshot() }

// snapshotStats captures the persistence counters in dominance order
// (error counters before their totals would matter if one derived from
// the other; here the only invariant is that age is computed from the
// same timestamp that is reported).
func (s *Server) snapshotStats() SnapshotStats {
	st := SnapshotStats{
		Saves:           s.snapSaves.Load(),
		SaveErrors:      s.snapSaveErrors.Load(),
		RestoredEntries: s.snapRestored.Load(),
		LoadErrors:      s.snapLoadErrors.Load(),
		AgeSeconds:      -1,
	}
	if ns := s.snapLastUnixNS.Load(); ns != 0 {
		st.LastSaveUnixMS = ns / int64(time.Millisecond)
		st.AgeSeconds = time.Since(time.Unix(0, ns)).Seconds()
	}
	return st
}

// snapshotAgeSeconds is the bcc_snapshot_age_seconds gauge: seconds
// since the last successful save, -1 before the first one.
func (s *Server) snapshotAgeSeconds() float64 {
	ns := s.snapLastUnixNS.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// SaveSnapshot persists the solution cache to path in the bccsnap/1
// format (atomic rename; see internal/solvecache). Panics from armed
// snapshot faults are contained into the returned error so a periodic
// snapshot timer can never take the server down.
func (s *Server) SaveSnapshot(path string) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			err = fmt.Errorf("snapshot save panicked: %v", p)
		}
		if err != nil {
			s.snapSaveErrors.Add(1)
		}
	}()
	n, err = solvecache.Save(path, s.cache, func(v any) ([]byte, error) {
		resp, ok := v.(*SolveResponse)
		if !ok {
			return nil, fmt.Errorf("unexpected cache value %T", v)
		}
		return json.Marshal(resp)
	})
	if err == nil {
		s.snapSaves.Add(1)
		s.snapLastUnixNS.Store(time.Now().UnixNano())
	}
	return n, err
}

// RestoreSnapshot loads a snapshot written by SaveSnapshot. Corrupt or
// version-mismatched files (and armed load faults) are contained into
// the returned error and counted; the caller logs and starts cold.
func (s *Server) RestoreSnapshot(path string) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			err = fmt.Errorf("snapshot load panicked: %v", p)
		}
		if err != nil {
			s.snapLoadErrors.Add(1)
		}
	}()
	n, err = solvecache.Load(path, s.cache, func(raw []byte) (any, error) {
		var resp SolveResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, err
		}
		// Restored answers always present as cache hits; scrub the
		// per-request fields of whoever originally solved them.
		resp.Cached, resp.Shared, resp.DurationMS = false, false, 0
		return &resp, nil
	})
	if err == nil {
		s.snapRestored.Add(uint64(n))
	}
	return n, err
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.snapshot())
}
