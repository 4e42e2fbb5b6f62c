package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/solvecache"
)

// GatewayConfig tunes the HTTP front of a Cluster. The zero value gets
// the same body/batch limits as internal/server, so a client that fits
// a backend fits the gateway.
type GatewayConfig struct {
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatch caps the number of requests in one batch (default 64).
	MaxBatch int
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	return c
}

// Gateway mounts a Cluster behind the same HTTP surface as a single
// bccserver — POST /v1/solve, POST /v1/solve/batch, GET /v1/healthz,
// GET /v1/statz, GET /metrics — so clients (and bccload) need not know
// whether they talk to one backend or a routed fleet. The one addition
// to the contract: the X-BCC-Backend response header names the backend
// that actually answered, so affinity is observable with curl -i.
type Gateway struct {
	cl    *Cluster
	cfg   GatewayConfig
	reg   *obs.Registry
	start time.Time

	requests    atomic.Uint64
	badRequests atomic.Uint64
	panics      atomic.Uint64
	draining    atomic.Bool

	// routes maps the SHA-256 of a /v1/solve body that validated to its
	// *routeEntry, so a byte-identical repeat is routed without being
	// decoded or built into an instance.
	routes *solvecache.Cache

	// http instruments every route like the backend server's, under
	// bcc_gate_* names.
	http api.Instrumentation
}

// routeMemoEntries bounds the gateway's route memo. An entry holds a
// 32-byte digest and a 72-byte fingerprint, so a full memo takes on the
// order of a megabyte.
const routeMemoEntries = 4096

// routeEntry is what the route memo holds for a body that validated:
// its routing fingerprint, and whether a repeat of it may ask the owner
// by digest first. Only a body without no_cache may, since only such a
// body is in a backend's repeat memo, and only until a digest request
// for it is followed by an answer the owner does not cache
// (Gateway.handleSolve).
type routeEntry struct {
	fp       string
	byDigest bool
}

// NewGateway wraps c. The gateway shares the cluster's metric registry,
// so one /metrics scrape covers routing and HTTP serving alike.
func NewGateway(c *Cluster, cfg GatewayConfig) *Gateway {
	g := &Gateway{cl: c, cfg: cfg.withDefaults(), reg: c.Registry(), start: time.Now(),
		routes: solvecache.New(routeMemoEntries, 0)}
	g.http = api.Instrumentation{
		Registry: g.reg,
		Latency:  "bcc_gate_http_request_seconds", LatencyHelp: "Gateway HTTP request latency by route and status.",
		Requests: "bcc_gate_http_requests_total", RequestsHelp: "Gateway HTTP requests by route and status.",
		Panics: &g.panics,
	}
	g.reg.GaugeFunc("bcc_gate_uptime_seconds", "Seconds since the gateway started.", nil,
		func() float64 { return time.Since(g.start).Seconds() })
	g.reg.CounterFunc("bcc_gate_requests_total", "Requests accepted by the gateway (batch items count).", nil,
		func() float64 { return float64(g.requests.Load()) })
	g.reg.CounterFunc("bcc_gate_bad_requests_total", "Requests failing gateway-side validation (4xx).", nil,
		func() float64 { return float64(g.badRequests.Load()) })
	g.reg.CounterFunc("bcc_gate_panics_recovered_total", "Gateway handler panics contained into responses.", nil,
		func() float64 { return float64(g.panics.Load()) })
	g.reg.GaugeFunc("bcc_gate_draining", "1 once BeginDrain was called (healthz answers 503), else 0.", nil,
		func() float64 {
			if g.draining.Load() {
				return 1
			}
			return 0
		})
	return g
}

// Cluster exposes the routed cluster (tests, statz embedders).
func (g *Gateway) Cluster() *Cluster { return g.cl }

// BeginDrain flips /v1/healthz to 503 so an upstream balancer stops
// sending traffic while in-flight requests finish — the same drain
// contract the backends themselves honor.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Handler returns the gateway's route table, instrumented like the
// backend server's.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", g.http.Instrument("/v1/solve", g.handleSolve))
	mux.HandleFunc("POST /v1/solve/batch", g.http.Instrument("/v1/solve/batch", g.handleBatch))
	mux.HandleFunc("POST /v1/jobs", g.http.Instrument("/v1/jobs", g.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", g.http.Instrument("/v1/jobs", g.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", g.http.Instrument("/v1/jobs/{id}", g.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/result", g.http.Instrument("/v1/jobs/{id}/result", g.handleJobResult))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", g.http.Instrument("/v1/jobs/{id}/cancel", g.handleJobCancel))
	mux.HandleFunc("GET /v1/healthz", g.http.Instrument("/v1/healthz", g.handleHealthz))
	mux.HandleFunc("GET /v1/statz", g.http.Instrument("/v1/statz", g.handleStatz))
	mux.HandleFunc("GET /metrics", g.http.Instrument("/metrics", g.handleMetrics))
	return mux
}

// RouteFingerprint computes the routing key for one request: the same
// canonical fingerprint the backend will derive, including the budget
// override (two requests differing only in budget are different
// instances, cached separately, and may legitimately live on different
// backends). Validation failures mirror the backend's 400s so a bad
// request is rejected at the edge without spending a backend call.
func RouteFingerprint(req *api.SolveRequest) (string, *api.Error) {
	in, apiErr := routeInstance(req)
	if apiErr != nil {
		return "", apiErr
	}
	return in.Fingerprint(), nil
}

// RouteFingerprints is RouteFingerprint plus the near-miss hash
// (bccfp2/1) of the same instance.
func RouteFingerprints(req *api.SolveRequest) (fp, fp2 string, _ *api.Error) {
	in, apiErr := routeInstance(req)
	if apiErr != nil {
		return "", "", apiErr
	}
	return in.Fingerprint(), in.Fingerprint2(), nil
}

// routeInstance builds the instance a request names, budget override
// applied, with the backend's validation 400s.
func routeInstance(req *api.SolveRequest) (*model.Instance, *api.Error) {
	in, err := dataset.FromFormat(req.Instance)
	if err != nil {
		return nil, api.Errorf(http.StatusBadRequest, "invalid instance: %v", err)
	}
	if req.Budget != nil {
		b := *req.Budget
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, api.Errorf(http.StatusBadRequest, "invalid budget override %v", b)
		}
		in = in.WithBudget(b)
	}
	return in, nil
}

// handleSolve forwards the body it received and relays the backend's
// answer, neither re-encoded; a byte-identical repeat is first offered
// to the owner as the body's digest alone (Cluster.solveRouted). Both
// hops write api.SolveResponse through the one api.WriteJSON, so the
// relayed bytes are the ones a decode and re-encode here would produce.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, apiErr := api.ReadBody(w, r, g.cfg.MaxBodyBytes)
	if apiErr != nil {
		g.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	fp, got, apiErr := g.routeFingerprint(body)
	if apiErr != nil {
		g.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	answer, route, err := g.cl.solveRouted(r.Context(), body, got, fp)
	if err != nil {
		api.WriteError(w, routeError(err))
		return
	}
	if route.DigestFallback && !completeAnswer(answer) {
		// A backend caches only complete answers, so it could not answer
		// this body's next repeat by digest either: from now on the body
		// goes whole, without the empty round trip first.
		g.routes.Put(string(got.digest[:]), &routeEntry{fp: fp})
	}
	w.Header().Set(api.BackendHeader, route.BackendID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(answer)
}

// completeAnswer reports whether a relayed /v1/solve answer has status
// complete, the only status a backend caches. It decodes the answer, so
// the gateway calls it only after a digest fallback.
func completeAnswer(answer []byte) bool {
	var a struct {
		Status string `json:"status"`
	}
	return json.Unmarshal(answer, &a) == nil && a.Status == guard.Complete.String()
}

// routeFingerprint returns the routing fingerprint of a /v1/solve body:
// from the route memo for a byte-identical repeat, with the body's
// digest when the repeat may go by digest, else by decoding the body
// and fingerprinting its instance, which it also returns for peer fill
// to reuse. Only bodies that validate are memoized, so an invalid one
// is answered 400 here every time.
func (g *Gateway) routeFingerprint(body []byte) (string, ingested, *api.Error) {
	// SHA-256, not a faster non-cryptographic hash: a collision would
	// route, and on the backend answer, one body as another.
	sum := sha256.Sum256(body)
	digest := string(sum[:])
	if v, ok := g.routes.Get(digest); ok {
		e := v.(*routeEntry)
		if e.byDigest {
			return e.fp, ingested{digest: &sum}, nil
		}
		return e.fp, ingested{}, nil
	}
	req := new(api.SolveRequest)
	if apiErr := api.DecodeBody(body, req); apiErr != nil {
		return "", ingested{}, apiErr
	}
	in, apiErr := routeInstance(req)
	if apiErr != nil {
		return "", ingested{}, apiErr
	}
	fp := in.Fingerprint()
	g.routes.Put(digest, &routeEntry{fp: fp, byDigest: !req.NoCache})
	return fp, ingested{req: req, in: in}, nil
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch api.BatchRequest
	if apiErr := api.DecodeJSON(w, r, g.cfg.MaxBodyBytes, &batch); apiErr != nil {
		g.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	if len(batch.Requests) == 0 {
		g.badRequests.Add(1)
		api.WriteError(w, api.Errorf(http.StatusBadRequest, "batch has no requests"))
		return
	}
	if len(batch.Requests) > g.cfg.MaxBatch {
		g.badRequests.Add(1)
		api.WriteError(w, api.Errorf(http.StatusBadRequest, "batch of %d exceeds the %d-request cap", len(batch.Requests), g.cfg.MaxBatch))
		return
	}
	g.requests.Add(uint64(len(batch.Requests)))

	// Fingerprint every item up front: invalid items are answered at the
	// edge, valid ones go through scatter-gather. Indices are preserved so
	// the merged response is in input order regardless of routing.
	items := make([]api.BatchItem, len(batch.Requests))
	var routed []api.SolveRequest
	var fps []string
	var routedIdx []int
	for i := range batch.Requests {
		fp, apiErr := RouteFingerprint(&batch.Requests[i])
		if apiErr != nil {
			g.badRequests.Add(1)
			items[i] = api.BatchItem{Error: apiErr.Msg, Code: apiErr.Code}
			continue
		}
		routed = append(routed, batch.Requests[i])
		fps = append(fps, fp)
		routedIdx = append(routedIdx, i)
	}
	if len(routed) > 0 {
		sub := g.cl.SolveBatch(r.Context(), routed, fps)
		for k, item := range sub.Responses {
			items[routedIdx[k]] = item
		}
	}
	api.WriteJSON(w, http.StatusOK, api.BatchResponse{Responses: items})
}

// handleHealthz answers 200 while the gateway is serving AND at least
// one backend is eligible — a gateway that can only answer 503s to every
// solve is not healthy, whatever its own process state.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	eligible := g.cl.EligibleBackends()
	if eligible == 0 {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no eligible backend", "backends": len(g.cl.Backends())})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "eligible_backends": eligible})
}

// GatewayStatz is the GET /v1/statz body of a gateway: its own serving
// counters plus the full cluster view.
type GatewayStatz struct {
	UptimeSeconds float64   `json:"uptime_seconds"`
	Build         obs.Build `json:"build"`
	Draining      bool      `json:"draining"`
	Requests      uint64    `json:"requests"`
	BadRequests   uint64    `json:"bad_requests"`
	Panics        uint64    `json:"panics_recovered"`
	Cluster       Stats     `json:"cluster"`
}

func (g *Gateway) handleStatz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, GatewayStatz{
		UptimeSeconds: time.Since(g.start).Seconds(),
		Build:         obs.ReadBuild(),
		Draining:      g.draining.Load(),
		Requests:      g.requests.Load(),
		BadRequests:   g.badRequests.Load(),
		Panics:        g.panics.Load(),
		Cluster:       g.cl.Stats(),
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WritePrometheus(w)
}

// routeError folds a routing failure into the API error shape. A
// backend's own HTTP answer passes through with its code and retry
// advice; cluster-level conditions map to the gateway's status: 503
// when nothing was eligible, 504 when the caller's deadline ran out
// first, 502 when the fleet was reachable but failed.
func routeError(err error) *api.Error {
	var he *client.HTTPError
	if errors.As(err, &he) {
		e := &api.Error{Code: he.StatusCode, Msg: he.Msg}
		if he.RetryAfter > 0 {
			e.RetryAfterSeconds = int(he.RetryAfter / time.Second)
		}
		return e
	}
	switch {
	case errors.Is(err, ErrNoBackends), errors.Is(err, resilience.ErrOpen):
		e := api.Errorf(http.StatusServiceUnavailable, "no backend available: %v", err)
		e.RetryAfterSeconds = 1
		return e
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return api.Errorf(http.StatusGatewayTimeout, "request deadline exceeded while routing: %v", err)
	default:
		return api.Errorf(http.StatusBadGateway, "backend call failed: %v", err)
	}
}
