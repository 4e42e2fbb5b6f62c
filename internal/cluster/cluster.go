package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// ErrNoBackends is returned when no backend is eligible to take a
// request: every member is unhealthy, draining, breaker-open, or the
// membership is empty. The gateway maps it to HTTP 503.
var ErrNoBackends = errors.New("cluster: no eligible backend")

// Config tunes a Cluster. Backends is required; everything else has
// defaults.
type Config struct {
	// Backends are the initial member base URLs (e.g.
	// "http://10.0.0.1:8080"). Order does not matter — routing is by
	// rendezvous hash, not position.
	Backends []string
	// ProbeInterval is how often every member's /v1/healthz is polled
	// (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout caps one health probe (default: ProbeInterval capped
	// at 2s).
	ProbeTimeout time.Duration
	// Breaker overrides the per-backend circuit breaker policy (nil =
	// 3 consecutive failures trip it, 2s cooldown).
	Breaker *resilience.BreakerConfig
	// MaxAttempts is the shared client's per-call attempt budget against
	// one backend (default 1: cross-backend failover is the cluster's
	// job, hammering a failing backend with intra-call retries is not).
	MaxAttempts int
	// HTTPClient overrides the transport of the shared API client.
	HTTPClient *http.Client
	// Registry receives the cluster's metric series (nil = a fresh one).
	Registry *obs.Registry
	// PeerFillWindow bounds how long after joining the membership a
	// backend counts as "new" for fleet peer fill (peerfill.go): a
	// rendezvous-remapped request landing on a new backend within the
	// window first fetches the previous owner's cached plan as a warm
	// start. Default 30s; negative disables peer fill.
	PeerFillWindow time.Duration
	// PeerFillTimeout caps one peer cache-entry fetch (default 500ms) —
	// peer fill is an accelerator and must never stall the solve it
	// serves.
	PeerFillTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
		if c.ProbeTimeout > 2*time.Second {
			c.ProbeTimeout = 2 * time.Second
		}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.PeerFillWindow == 0 {
		c.PeerFillWindow = 30 * time.Second
	}
	if c.PeerFillTimeout <= 0 {
		c.PeerFillTimeout = 500 * time.Millisecond
	}
	return c
}

// acct is the per-URL accounting that outlives membership changes:
// in-flight calls and a latency EWMA (fed by the shared client's
// OnCallStart/OnCallEnd hooks) plus cumulative request/failure counts.
// Keeping it keyed by URL rather than on the member struct means a
// backend that leaves and rejoins keeps its counters monotonic, which
// is what the Prometheus scrape contract demands.
type acct struct {
	inflight atomic.Int64
	ewmaNS   atomic.Int64 // 0 = no sample yet
	requests atomic.Uint64
	failures atomic.Uint64
}

// observeLatency folds one successful call into the EWMA (α = 0.3).
func (a *acct) observeLatency(d time.Duration) {
	for {
		old := a.ewmaNS.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)*3/10
		}
		if next == 0 {
			next = 1 // keep "has a sample" distinguishable from "never"
		}
		if a.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// backend is one cluster member: identity, health as seen by the probe
// loop, and its circuit breaker. The accounting lives in acct (per-URL,
// persistent across membership changes).
type backend struct {
	url     string
	breaker *resilience.Breaker
	acct    *acct

	// joinedAtNS is when this backend entered an already-running
	// membership (0 for initial members): the peer-fill window anchor.
	// A backend that was in the initial set never peer-fills — there was
	// no previous owner to fetch from.
	joinedAtNS atomic.Int64

	healthy    atomic.Bool
	draining   atomic.Bool
	reportedID atomic.Value // string: X-BCC-Backend from the last probe
	probeErr   atomic.Value // string: last probe failure, "" when fine
}

// displayID is the backend's self-reported process ID when a probe has
// seen one, else its URL — always something an operator can grep for.
func (b *backend) displayID() string {
	if id, _ := b.reportedID.Load().(string); id != "" {
		return id
	}
	return b.url
}

// eligible reports whether routing may pick this backend: probed
// healthy, not draining, and its breaker either not open or due for a
// half-open probe (the actual admission happens in callSolve via
// Breaker.Allow).
func (b *backend) eligible() bool {
	if !b.healthy.Load() || b.draining.Load() {
		return false
	}
	if b.breaker.State() == resilience.Open && b.breaker.OpenRemaining() > 0 {
		return false
	}
	return true
}

// membership is the immutable snapshot routing reads: swap-on-write so
// the hot path never takes a lock.
type membership struct {
	list  []*backend
	byURL map[string]*backend
	urls  []string
}

// Cluster is the routing tier over N bccserver backends. Create one
// with New, route through Solve / SolveBatch, and Close it to stop the
// probe loop.
type Cluster struct {
	cfg Config
	cl  *client.Client
	reg *obs.Registry

	members atomic.Pointer[membership]
	accts   sync.Map // url -> *acct

	metricsMu  sync.Mutex
	registered map[string]bool // backend URLs with registered series

	latHist *obs.Histogram // successful solve-call latency

	affinityPicks  atomic.Uint64
	fallbackPicks  atomic.Uint64
	failovers      atomic.Uint64
	noBackend      atomic.Uint64
	peerFills      atomic.Uint64
	peerFillMisses atomic.Uint64

	// Async-job tracking (jobs.go): external job ID -> owning backend.
	jobsMu          sync.Mutex
	trackedJobs     map[string]*gateJob
	jobSubmits      atomic.Uint64
	jobResubmits    atomic.Uint64
	jobsDroppedLive atomic.Uint64

	stopOnce sync.Once
	stopCh   chan struct{}
	loopWG   sync.WaitGroup
	probe    *http.Client
	rngMu    sync.Mutex
	rng      func(n int) int
}

// New builds a Cluster, runs one synchronous probe round so routing has
// real health before the first request, and starts the periodic probe
// loop.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	c := &Cluster{
		cfg:        cfg,
		reg:        cfg.Registry,
		registered: map[string]bool{},
		stopCh:     make(chan struct{}),
		probe:      &http.Client{Timeout: cfg.ProbeTimeout},
	}
	c.latHist = c.reg.Histogram("bcc_gate_backend_seconds",
		"Latency of successful backend solve calls.", nil, obs.DefBuckets)

	cl, err := client.New(client.Config{
		// The base is always overridden per call; any member URL
		// satisfies the client's non-empty contract.
		BaseURL:        cfg.Backends[0],
		HTTPClient:     cfg.HTTPClient,
		MaxAttempts:    cfg.MaxAttempts,
		DisableBreaker: true, // breakers are per backend, owned here
		OnCallStart: func(base string) {
			c.acctFor(base).inflight.Add(1)
		},
		OnCallEnd: func(base string, elapsed time.Duration, err error) {
			a := c.acctFor(base)
			a.inflight.Add(-1)
			if err == nil {
				a.observeLatency(elapsed)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	c.cl = cl

	c.initMetrics()
	if err := c.SetBackends(cfg.Backends); err != nil {
		return nil, err
	}
	c.loopWG.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the probe loop. In-flight requests finish on their own.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.loopWG.Wait()
}

// Registry exposes the metric registry (the gateway serves it on
// /metrics).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Client exposes the shared API client (tests and statz).
func (c *Cluster) Client() *client.Client { return c.cl }

// acctFor returns the persistent per-URL accounting cell.
func (c *Cluster) acctFor(url string) *acct {
	if a, ok := c.accts.Load(url); ok {
		return a.(*acct)
	}
	a, _ := c.accts.LoadOrStore(url, &acct{})
	return a.(*acct)
}

// backendByURL resolves a URL against the current membership (nil when
// not a member — e.g. a removed backend still referenced by a metric
// closure).
func (c *Cluster) backendByURL(url string) *backend {
	if m := c.members.Load(); m != nil {
		return m.byURL[url]
	}
	return nil
}

// Backends returns the current member URLs (copy).
func (c *Cluster) Backends() []string {
	m := c.members.Load()
	return append([]string(nil), m.urls...)
}

// EligibleBackends counts members routing could pick right now.
func (c *Cluster) EligibleBackends() int {
	n := 0
	for _, b := range c.members.Load().list {
		if b.eligible() {
			n++
		}
	}
	return n
}

// SetBackends replaces the membership with urls (normalized, deduped).
// Backends present before and after keep their breaker, health and
// accounting state — a SIGHUP that only adds a member must not reset
// the breakers of the others — and the new set is probed synchronously
// so routing never runs on assumed health.
func (c *Cluster) SetBackends(urls []string) error {
	seen := map[string]bool{}
	norm := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if !seen[u] {
			seen[u] = true
			norm = append(norm, u)
		}
	}
	if len(norm) == 0 {
		return errors.New("cluster: backend list is empty")
	}

	old := c.members.Load()
	list := make([]*backend, 0, len(norm))
	byURL := make(map[string]*backend, len(norm))
	for _, u := range norm {
		var b *backend
		if old != nil {
			b = old.byURL[u]
		}
		if b == nil {
			bcfg := resilience.BreakerConfig{ConsecutiveFailures: 3, Cooldown: 2 * time.Second}
			if c.cfg.Breaker != nil {
				bcfg = *c.cfg.Breaker
			}
			b = &backend{url: u, breaker: resilience.NewBreaker(bcfg), acct: c.acctFor(u)}
			b.healthy.Store(true) // innocent until the probe below says otherwise
			b.reportedID.Store("")
			b.probeErr.Store("")
			if old != nil {
				// A mid-life join: requests remapped here find a cold
				// cache, so peer fill applies for the next window.
				b.joinedAtNS.Store(time.Now().UnixNano())
			}
		}
		list = append(list, b)
		byURL[u] = b
		c.registerBackendMetrics(u)
	}
	c.members.Store(&membership{list: list, byURL: byURL, urls: norm})
	c.ProbeNow()
	return nil
}

// probeLoop polls every member's /v1/healthz until Close.
func (c *Cluster) probeLoop() {
	defer c.loopWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow probes every member once, concurrently, and waits for the
// round to finish. Exported for the SIGHUP reload path and tests.
func (c *Cluster) ProbeNow() {
	m := c.members.Load()
	if m == nil {
		return
	}
	var wg sync.WaitGroup
	for _, b := range m.list {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			c.probeOne(b)
		}(b)
	}
	wg.Wait()
}

// probeOne updates one backend's health from GET /v1/healthz: 200 is
// serving, 503 is draining (kept distinct so statz explains *why* it is
// out of rotation), anything else — including transport failure — is
// unhealthy. The X-BCC-Backend header teaches the cluster the backend's
// self-reported process ID.
func (c *Cluster) probeOne(b *backend) {
	resp, err := c.probe.Get(b.url + "/v1/healthz")
	if err != nil {
		b.healthy.Store(false)
		b.draining.Store(false)
		b.probeErr.Store(err.Error())
		return
	}
	defer func() {
		// The transport reuses a connection only once its response body
		// was read to the end. The bound keeps a runaway body from
		// holding the probe; a failed drain costs only the reuse.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	if id := resp.Header.Get(api.BackendHeader); id != "" {
		b.reportedID.Store(id)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		b.healthy.Store(true)
		b.draining.Store(false)
		b.probeErr.Store("")
	case resp.StatusCode == http.StatusServiceUnavailable:
		b.healthy.Store(true)
		b.draining.Store(true)
		b.probeErr.Store("")
	default:
		b.healthy.Store(false)
		b.draining.Store(false)
		b.probeErr.Store(fmt.Sprintf("healthz answered %d", resp.StatusCode))
	}
}

// randIntn picks a uniform int in [0,n) — injectable for deterministic
// fallback tests, mutex-guarded because picks race.
func (c *Cluster) randIntn(n int) int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng != nil {
		return c.rng(n)
	}
	return pseudoRand(n)
}

// pick chooses the primary backend for fingerprint fp plus a distinct
// secondary (failover target), skipping excluded URLs. When the
// rendezvous-first backend is eligible, that is the primary (affinity
// hit) and the secondary is the next eligible backend in rendezvous
// order. When the affinity target is out (unhealthy, draining, breaker
// open), the fallback is power-of-two-choices over the eligible
// backends by observed in-flight (latency EWMA breaking ties) — load-
// aware without a global queue-length oracle.
func (c *Cluster) pick(fp string, exclude map[string]bool) (primary, secondary *backend, affinity bool) {
	m := c.members.Load()
	urls := make([]string, 0, len(m.urls))
	for _, u := range m.urls {
		if !exclude[u] {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, nil, false
	}
	ranked := Rank(fp, urls)
	first := m.byURL[ranked[0]]
	if first.eligible() {
		var second *backend
		for _, u := range ranked[1:] {
			if b := m.byURL[u]; b.eligible() {
				second = b
				break
			}
		}
		return first, second, true
	}

	eligible := make([]*backend, 0, len(ranked))
	for _, u := range ranked {
		if b := m.byURL[u]; b.eligible() {
			eligible = append(eligible, b)
		}
	}
	switch len(eligible) {
	case 0:
		return nil, nil, false
	case 1:
		return eligible[0], nil, false
	}
	i := c.randIntn(len(eligible))
	j := c.randIntn(len(eligible) - 1)
	if j >= i {
		j++
	}
	a, b := eligible[i], eligible[j]
	if lighterLoad(b, a) {
		a, b = b, a
	}
	return a, b, false
}

// lighterLoad orders two backends by observed load: fewer in-flight
// calls wins, latency EWMA breaks ties.
func lighterLoad(x, y *backend) bool {
	xi, yi := x.acct.inflight.Load(), y.acct.inflight.Load()
	if xi != yi {
		return xi < yi
	}
	return x.acct.ewmaNS.Load() < y.acct.ewmaNS.Load()
}

// RouteInfo describes how one solve was routed — surfaced as the
// gateway's X-BCC-Backend header and in its statz.
type RouteInfo struct {
	// BackendURL is the member that produced the returned response.
	BackendURL string
	// BackendID is that member's self-reported process ID (URL when the
	// probe has not seen one yet).
	BackendID string
	// Affinity reports the request landed on its rendezvous-first
	// backend — the one whose cache should hold its solution.
	Affinity bool
	// FailedOver reports the primary failed and the secondary answered.
	FailedOver bool
	// PeerFilled reports the request was warm-seeded with a cached plan
	// fetched from the previous owner before dispatch (peerfill.go).
	PeerFilled bool
}

// Solve routes one typed request: SolveRouted over its encoding, with
// the answer decoded. fp is the instance's canonical fingerprint (the
// routing key).
func (c *Cluster) Solve(ctx context.Context, req *api.SolveRequest, fp string) (*api.SolveResponse, RouteInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, RouteInfo{}, fmt.Errorf("cluster: encoding request: %w", err)
	}
	answer, route, err := c.SolveRouted(ctx, body, fp)
	if err != nil {
		return nil, route, err
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return nil, route, fmt.Errorf("cluster: decoding answer from %s: %w", route.BackendURL, err)
	}
	return &resp, route, nil
}

// SolveRouted routes one encoded /v1/solve body by fingerprint
// affinity, with one cross-backend failover, and returns the answering
// backend's 200 body unchanged. fp is the body's canonical fingerprint
// (the routing key). The body is forwarded as given, except under fleet
// peer fill: when the chosen primary joined the membership recently
// (its cache is cold for remapped fingerprints), the previous owner's
// cached plan — exact key first, near-miss sibling second — is attached
// as the request's warm seed before dispatch.
func (c *Cluster) SolveRouted(ctx context.Context, body []byte, fp string) ([]byte, RouteInfo, error) {
	return c.solveRouted(ctx, body, ingested{}, fp)
}

// solveRouted is SolveRouted for a body whose decoded request and
// instance the caller may already hold, so that peer fill does not
// derive them again.
func (c *Cluster) solveRouted(ctx context.Context, body []byte, got ingested, fp string) ([]byte, RouteInfo, error) {
	primary, secondary, affinity := c.pick(fp, nil)
	if primary == nil {
		c.noBackend.Add(1)
		return nil, RouteInfo{}, ErrNoBackends
	}
	if affinity {
		c.affinityPicks.Add(1)
	} else {
		c.fallbackPicks.Add(1)
	}
	route := RouteInfo{BackendURL: primary.url, BackendID: primary.displayID(), Affinity: affinity}
	if filled, ok := c.maybePeerFill(ctx, body, got, fp, primary, secondary); ok {
		body = filled
		route.PeerFilled = true
	}

	// The primary answers on the caller's goroutine; a retryable failure
	// earns one call to the secondary.
	var firstErr error
	for _, b := range []*backend{primary, secondary} {
		if b == nil {
			break
		}
		if b == secondary {
			route.FailedOver = true
			c.failovers.Add(1)
		}
		answer, err := c.callSolve(ctx, b, body)
		if err == nil {
			route.BackendURL, route.BackendID = b.url, b.displayID()
			return answer, route, nil
		}
		if ctx.Err() != nil {
			// The caller's own deadline/cancel: stop routing around it.
			return nil, route, ctx.Err()
		}
		if !client.Retryable(err) {
			// A 4xx is the request's bug; every backend would answer the
			// same, so failover is pointless.
			return nil, route, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, route, firstErr
}

// callSolve runs one solve against one backend under its breaker, and
// folds the outcome into the backend's health.
func (c *Cluster) callSolve(ctx context.Context, b *backend, body []byte) ([]byte, error) {
	if !b.breaker.Allow() {
		return nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	start := time.Now()
	answer, err := c.cl.SolveBody(ctx, body, &client.CallOpts{BaseURL: b.url})
	c.recordOutcome(b, time.Since(start), err)
	return answer, err
}

// callBatch is callSolve for one scatter-gather shard.
func (c *Cluster) callBatch(ctx context.Context, b *backend, reqs []api.SolveRequest) (*api.BatchResponse, error) {
	if !b.breaker.Allow() {
		return nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	resp, err := c.cl.SolveBatchOpts(ctx, reqs, &client.CallOpts{BaseURL: b.url})
	c.recordOutcome(b, 0, err)
	return resp, err
}

// recordOutcome applies one call's result to the backend's breaker and
// health. Context cancellation (the caller's own deadline or cancel)
// says nothing about the backend and records nothing; non-retryable
// HTTP answers (4xx) are the request's fault and record nothing;
// retryable failures count against the breaker, and transport failures
// additionally mark the backend unhealthy right away so routing reacts
// a full probe interval sooner.
func (c *Cluster) recordOutcome(b *backend, elapsed time.Duration, err error) {
	if err == nil {
		b.breaker.Record(true)
		if elapsed > 0 {
			c.latHist.Observe(elapsed.Seconds())
		}
		return
	}
	b.acct.failures.Add(1)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	var he *client.HTTPError
	isHTTP := errors.As(err, &he)
	if !client.Retryable(err) {
		return
	}
	b.breaker.Record(false)
	if !isHTTP && !errors.Is(err, resilience.ErrOpen) {
		b.healthy.Store(false)
	}
}

// batchPending tracks one batch item still waiting for an answer.
type batchPending struct {
	idx      int
	fp       string
	excluded map[string]bool
	lastErr  error
}

// batchAttempts bounds scatter-gather routing attempts per item: the
// affinity shard plus one re-route after a shard failure.
const batchAttempts = 2

// SolveBatch scatters reqs across backends by per-item fingerprint
// affinity, fans the shards out concurrently, and gathers the answers
// back in input order. One slow or dead backend degrades only its own
// shard: its items are re-routed once (excluding the failed backend)
// and, failing that, answered with a per-item error — the batch itself
// always returns a complete, ordered response set.
func (c *Cluster) SolveBatch(ctx context.Context, reqs []api.SolveRequest, fps []string) *api.BatchResponse {
	items := make([]api.BatchItem, len(reqs))
	pending := make([]*batchPending, 0, len(reqs))
	for i := range reqs {
		pending = append(pending, &batchPending{idx: i, fp: fps[i]})
	}

	for attempt := 0; attempt < batchAttempts && len(pending) > 0; attempt++ {
		groups := map[*backend][]*batchPending{}
		for _, p := range pending {
			primary, _, affinity := c.pick(p.fp, p.excluded)
			if primary == nil {
				c.noBackend.Add(1)
				items[p.idx] = noBackendItem(p.lastErr)
				continue
			}
			if attempt == 0 {
				if affinity {
					c.affinityPicks.Add(1)
				} else {
					c.fallbackPicks.Add(1)
				}
			}
			groups[primary] = append(groups[primary], p)
		}

		var mu sync.Mutex
		var next []*batchPending
		var wg sync.WaitGroup
		for b, group := range groups {
			wg.Add(1)
			go func(b *backend, group []*batchPending) {
				defer wg.Done()
				sub := make([]api.SolveRequest, len(group))
				for k, p := range group {
					sub[k] = reqs[p.idx]
				}
				resp, err := c.callBatch(ctx, b, sub)
				if err == nil && len(resp.Responses) != len(group) {
					err = fmt.Errorf("backend %s answered %d items for a %d-item shard", b.url, len(resp.Responses), len(group))
				}
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					for k, p := range group {
						items[p.idx] = resp.Responses[k]
					}
					return
				}
				if !client.Retryable(err) {
					// The shard's shape itself was rejected; re-routing the
					// same requests would earn the same answer.
					for _, p := range group {
						items[p.idx] = errorItem(err)
					}
					return
				}
				for _, p := range group {
					if p.excluded == nil {
						p.excluded = map[string]bool{}
					}
					p.excluded[b.url] = true
					p.lastErr = err
					next = append(next, p)
				}
			}(b, group)
		}
		wg.Wait()
		pending = next
	}

	for _, p := range pending {
		items[p.idx] = errorItem(fmt.Errorf("no backend answered after %d attempts: %w", batchAttempts, p.lastErr))
	}
	return &api.BatchResponse{Responses: items}
}

// errorItem folds a shard failure into one item's answer, preserving
// the backend's HTTP status and retry advice when there was one.
func errorItem(err error) api.BatchItem {
	var he *client.HTTPError
	if errors.As(err, &he) {
		item := api.BatchItem{Error: he.Msg, Code: he.StatusCode}
		if he.RetryAfter > 0 {
			item.RetryAfterSeconds = int(he.RetryAfter / time.Second)
		}
		return item
	}
	return api.BatchItem{Error: err.Error(), Code: http.StatusBadGateway}
}

// noBackendItem is the per-item answer when routing found no eligible
// backend at all.
func noBackendItem(lastErr error) api.BatchItem {
	msg := ErrNoBackends.Error()
	if lastErr != nil {
		msg = fmt.Sprintf("%s (last shard error: %v)", msg, lastErr)
	}
	return api.BatchItem{Error: msg, Code: http.StatusServiceUnavailable}
}

// BackendStatus is one member's row in Stats / the gateway statz.
type BackendStatus struct {
	URL            string                  `json:"url"`
	ID             string                  `json:"id"`
	Healthy        bool                    `json:"healthy"`
	Draining       bool                    `json:"draining"`
	Eligible       bool                    `json:"eligible"`
	LastProbeError string                  `json:"last_probe_error,omitempty"`
	InFlight       int64                   `json:"inflight"`
	LatencyEWMAMS  float64                 `json:"latency_ewma_ms"`
	Requests       uint64                  `json:"requests"`
	Failures       uint64                  `json:"failures"`
	Breaker        resilience.BreakerStats `json:"breaker"`
}

// Stats is a point-in-time view of the cluster.
type Stats struct {
	Backends      []BackendStatus `json:"backends"`
	AffinityPicks uint64          `json:"affinity_picks"`
	FallbackPicks uint64          `json:"fallback_picks"`
	Failovers     uint64          `json:"failovers"`
	NoBackend     uint64          `json:"no_backend"`
	// Hedges and HedgeWins always read 0: the gateway does not hedge.
	// The fields stay for readers that decode them.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// PeerFills / PeerFillMisses count fleet warm transfers: requests
	// dispatched to a recently joined backend with the previous owner's
	// cached plan attached, and fill attempts that found nothing.
	PeerFills      uint64       `json:"peer_fills"`
	PeerFillMisses uint64       `json:"peer_fill_misses"`
	Jobs           JobStats     `json:"jobs"`
	Client         client.Stats `json:"client"`
}

// Stats captures the cluster counters and every member's status.
func (c *Cluster) Stats() Stats {
	st := Stats{
		AffinityPicks:  c.affinityPicks.Load(),
		FallbackPicks:  c.fallbackPicks.Load(),
		Failovers:      c.failovers.Load(),
		NoBackend:      c.noBackend.Load(),
		PeerFills:      c.peerFills.Load(),
		PeerFillMisses: c.peerFillMisses.Load(),
		Jobs:           c.jobStats(),
		Client:         c.cl.Stats(),
	}
	for _, b := range c.members.Load().list {
		id, _ := b.reportedID.Load().(string)
		perr, _ := b.probeErr.Load().(string)
		st.Backends = append(st.Backends, BackendStatus{
			URL:            b.url,
			ID:             id,
			Healthy:        b.healthy.Load(),
			Draining:       b.draining.Load(),
			Eligible:       b.eligible(),
			LastProbeError: perr,
			InFlight:       b.acct.inflight.Load(),
			LatencyEWMAMS:  float64(b.acct.ewmaNS.Load()) / float64(time.Millisecond),
			Requests:       b.acct.requests.Load(),
			Failures:       b.acct.failures.Load(),
			Breaker:        b.breaker.Snapshot(),
		})
	}
	return st
}

// initMetrics registers the cluster-wide series.
func (c *Cluster) initMetrics() {
	reg := c.reg
	reg.GaugeFunc("bcc_gate_backends", "Current cluster membership size.", nil,
		func() float64 {
			if m := c.members.Load(); m != nil {
				return float64(len(m.list))
			}
			return 0
		})
	reg.GaugeFunc("bcc_gate_eligible_backends", "Members routing could pick right now.", nil,
		func() float64 {
			if c.members.Load() == nil {
				return 0
			}
			return float64(c.EligibleBackends())
		})
	reg.CounterFunc("bcc_gate_affinity_picks_total", "Requests routed to their rendezvous-first backend.", nil,
		func() float64 { return float64(c.affinityPicks.Load()) })
	reg.CounterFunc("bcc_gate_fallback_picks_total", "Requests routed by power-of-two-choices fallback.", nil,
		func() float64 { return float64(c.fallbackPicks.Load()) })
	reg.CounterFunc("bcc_gate_failovers_total", "Solves answered by the secondary after the primary failed.", nil,
		func() float64 { return float64(c.failovers.Load()) })
	reg.CounterFunc("bcc_gate_no_backend_total", "Requests refused because no backend was eligible.", nil,
		func() float64 { return float64(c.noBackend.Load()) })
	reg.CounterFunc("bcc_incr_peer_fill_total", "Requests warm-seeded from the previous owner's cache after a backend join.", nil,
		func() float64 { return float64(c.peerFills.Load()) })
	reg.CounterFunc("bcc_incr_peer_fill_miss_total", "Peer-fill attempts that found no usable cached plan.", nil,
		func() float64 { return float64(c.peerFillMisses.Load()) })
	c.initJobMetrics()
}

// registerBackendMetrics registers the labeled per-backend series once
// per URL ever seen. The closures resolve the backend through the
// current membership at scrape time, so a URL that leaves and rejoins
// reports the live member, not a stale struct; counters read the
// persistent per-URL accounting so they never go backwards.
func (c *Cluster) registerBackendMetrics(url string) {
	c.metricsMu.Lock()
	defer c.metricsMu.Unlock()
	if c.registered[url] {
		return
	}
	c.registered[url] = true
	labels := obs.Labels{"backend": url}
	a := c.acctFor(url)
	c.reg.GaugeFunc("bcc_gate_backend_healthy", "1 while the backend probes healthy and serving, else 0.", labels,
		func() float64 {
			if b := c.backendByURL(url); b != nil && b.healthy.Load() && !b.draining.Load() {
				return 1
			}
			return 0
		})
	c.reg.GaugeFunc("bcc_gate_backend_breaker_state", "Backend breaker: 0 closed, 1 open, 2 half-open, -1 not a member.", labels,
		func() float64 {
			b := c.backendByURL(url)
			if b == nil {
				return -1
			}
			switch b.breaker.State() {
			case resilience.Open:
				return 1
			case resilience.HalfOpen:
				return 2
			default:
				return 0
			}
		})
	c.reg.GaugeFunc("bcc_gate_backend_inflight", "Calls in flight to the backend.", labels,
		func() float64 { return float64(a.inflight.Load()) })
	c.reg.GaugeFunc("bcc_gate_backend_latency_ewma_seconds", "EWMA of successful call latency to the backend.", labels,
		func() float64 { return float64(a.ewmaNS.Load()) / float64(time.Second) })
	c.reg.CounterFunc("bcc_gate_backend_requests_total", "Calls dispatched to the backend.", labels,
		func() float64 { return float64(a.requests.Load()) })
	c.reg.CounterFunc("bcc_gate_backend_failures_total", "Calls to the backend that failed.", labels,
		func() float64 { return float64(a.failures.Load()) })
}

// pseudoRandState seeds the default pick randomness. Crypto-grade
// randomness is pointless here — the p2c fallback only needs to avoid
// herding — and a package-local generator avoids contending on
// math/rand's global lock from the request path.
var pseudoRandState atomic.Uint64

func init() { pseudoRandState.Store(uint64(time.Now().UnixNano()) | 1) }

// pseudoRand steps an xorshift generator and reduces to [0,n).
func pseudoRand(n int) int {
	for {
		old := pseudoRandState.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if pseudoRandState.CompareAndSwap(old, x) {
			return int(x % uint64(n))
		}
	}
}
