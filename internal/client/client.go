// Package client is the resilient HTTP client for the BCC solving
// service (re-exported as bcc.Client): it wraps POST /v1/solve and
// /v1/solve/batch with the internal/resilience stack — jittered
// exponential backoff, honoring the server's Retry-After shedding
// advice, and a circuit breaker so a failing endpoint is left alone
// for a cooldown instead of being hammered — under the caller's
// context deadline.
//
// Retry discipline: transport failures, 5xx answers, 408s and shed
// 429s are retryable and count against the breaker; other 4xx answers
// are the caller's bug, never retried and never held against the
// server's health. A 429's Retry-After (header or JSON body) stretches
// the backoff delay — the client will not knock again before the
// server said it is worth it.
//
// Observability: pass an obs.Registry and the client exports
// bcc_retry_total, bcc_breaker_state (0 closed / 1 open / 2 half-open),
// bcc_breaker_transitions_total{to} and bcc_client_requests_total by
// outcome. Stats() returns the same numbers as one consistent struct.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Config tunes a Client. Only BaseURL is required.
type Config struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient is the transport (default: a plain http.Client; the
	// per-attempt and per-call deadlines come from contexts, not a
	// client-wide timeout that would cap long solves).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first included (default 4).
	MaxAttempts int
	// Backoff shapes inter-attempt delays (zero value = defaults:
	// 100ms base, ×2, 10s cap, 20% jitter).
	Backoff resilience.Backoff
	// PerAttempt, when positive, caps each individual HTTP attempt.
	PerAttempt time.Duration
	// Breaker overrides the circuit breaker policy (nil = defaults).
	Breaker *resilience.BreakerConfig
	// DisableBreaker turns the breaker off entirely (load tests that
	// must keep hammering).
	DisableBreaker bool
	// Registry, when non-nil, receives the client's metric series.
	Registry *obs.Registry
	// MaxResponseBytes caps response bodies (default 32 MiB).
	MaxResponseBytes int64
	// OnCallStart / OnCallEnd, when non-nil, observe every logical call
	// (Solve and SolveBatch each count one, however many attempts it
	// takes) keyed by the base URL it targeted after any CallOpts
	// override. They are the per-backend in-flight and latency
	// accounting hooks of the bccgate routing tier: the cluster bumps a
	// per-backend gauge on start and folds the elapsed time into that
	// backend's latency estimate on end. Both may be called from many
	// goroutines at once and must not block.
	OnCallStart func(baseURL string)
	OnCallEnd   func(baseURL string, elapsed time.Duration, err error)
}

// CallOpts adjusts one call. The zero value (and a nil pointer) means
// the client's defaults.
type CallOpts struct {
	// BaseURL, when non-empty, overrides the client's base URL for this
	// call only. A routing tier (bccgate) keeps one client — one retry
	// policy, one metrics registration — and directs each request at the
	// backend its hash ranking chose.
	BaseURL string
}

// HTTPError is a non-2xx answer from the service, carrying any
// Retry-After advice; it implements resilience.AdvisedDelayer so the
// retrier never retries sooner than the server asked.
type HTTPError struct {
	StatusCode int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server answered %d: %s (retry after %v)", e.StatusCode, e.Msg, e.RetryAfter)
	}
	return fmt.Sprintf("server answered %d: %s", e.StatusCode, e.Msg)
}

// AdvisedDelay reports the server's Retry-After advice (0 = none).
func (e *HTTPError) AdvisedDelay() time.Duration { return e.RetryAfter }

// retryableStatus classifies response codes worth retrying: shed load
// (429), request timeout (408), and server-side failures (5xx).
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusRequestTimeout || code >= 500
}

// Retryable reports whether err is worth retrying under this package's
// discipline (exported for load drivers that classify outcomes).
func Retryable(err error) bool {
	var he *HTTPError
	if errors.As(err, &he) {
		return retryableStatus(he.StatusCode)
	}
	// Anything else the transport produced (connection refused, reset,
	// EOF mid-body) is worth another try.
	return true
}

// Client is a resilient caller of the solving service. Create one with
// New; it is safe for concurrent use.
type Client struct {
	base     string
	http     *http.Client
	breaker  *resilience.Breaker
	retrier  *resilience.Retrier
	maxBody  int64
	registry *obs.Registry

	onCallStart func(string)
	onCallEnd   func(string, time.Duration, error)

	requests  atomic.Uint64 // logical calls (Solve / SolveBatch each count 1)
	successes atomic.Uint64
	failures  atomic.Uint64
	retries   atomic.Uint64 // scheduled retries across all calls
	openFast  atomic.Uint64 // calls refused locally by the open breaker
}

// New builds a Client.
func New(cfg Config) (*Client, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	if base == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	maxBody := cfg.MaxResponseBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	c := &Client{
		base: base, http: httpc, maxBody: maxBody, registry: cfg.Registry,
		onCallStart: cfg.OnCallStart, onCallEnd: cfg.OnCallEnd,
	}

	if !cfg.DisableBreaker {
		bcfg := resilience.BreakerConfig{}
		if cfg.Breaker != nil {
			bcfg = *cfg.Breaker
		}
		userHook := bcfg.OnStateChange
		bcfg.OnStateChange = func(from, to resilience.State) {
			if c.registry != nil {
				c.registry.Counter("bcc_breaker_transitions_total",
					"Circuit breaker state transitions by destination state.",
					obs.Labels{"to": to.String()}).Inc()
			}
			if userHook != nil {
				userHook(from, to)
			}
		}
		c.breaker = resilience.NewBreaker(bcfg)
	}

	c.retrier = &resilience.Retrier{
		MaxAttempts: cfg.MaxAttempts,
		Backoff:     cfg.Backoff,
		PerAttempt:  cfg.PerAttempt,
		Breaker:     c.breaker,
		Retryable:   Retryable,
		OnRetry: func(int, time.Duration, error) {
			c.retries.Add(1)
		},
	}

	if reg := c.registry; reg != nil {
		reg.CounterFunc("bcc_retry_total", "Retries scheduled by the client across all calls.", nil,
			func() float64 { return float64(c.retries.Load()) })
		reg.CounterFunc("bcc_client_requests_total", "Client calls by outcome.", obs.Labels{"outcome": "success"},
			func() float64 { return float64(c.successes.Load()) })
		reg.CounterFunc("bcc_client_requests_total", "Client calls by outcome.", obs.Labels{"outcome": "failure"},
			func() float64 { return float64(c.failures.Load()) })
		reg.CounterFunc("bcc_breaker_open_rejects_total", "Calls refused locally by the open breaker.", nil,
			func() float64 { return float64(c.openFast.Load()) })
		reg.GaugeFunc("bcc_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.", nil,
			func() float64 {
				if c.breaker == nil {
					return 0
				}
				switch c.breaker.State() {
				case resilience.Open:
					return 1
				case resilience.HalfOpen:
					return 2
				default:
					return 0
				}
			})
	}
	return c, nil
}

// Breaker exposes the client's breaker (nil when disabled) for tests
// and load drivers that report its state.
func (c *Client) Breaker() *resilience.Breaker { return c.breaker }

// Solve runs one request through POST /v1/solve with retries.
func (c *Client) Solve(ctx context.Context, req *api.SolveRequest) (*api.SolveResponse, error) {
	return c.SolveOpts(ctx, req, nil)
}

// SolveOpts is Solve with per-call options (e.g. a backend override).
func (c *Client) SolveOpts(ctx context.Context, req *api.SolveRequest, opts *CallOpts) (*api.SolveResponse, error) {
	var out api.SolveResponse
	if err := c.call(ctx, opts, "/v1/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveBody is SolveOpts for a request already encoded as JSON: body is
// posted as given, and the 200 answer's bytes come back unchanged once
// checked to be valid JSON. A routing tier (bccgate) relays bodies and
// answers through it without decoding or re-encoding either. Retries,
// breaker and accounting hooks are those of every other call.
func (c *Client) SolveBody(ctx context.Context, body []byte, opts *CallOpts) ([]byte, error) {
	c.requests.Add(1)
	var out json.RawMessage
	if err := c.callBody(ctx, opts, "/v1/solve", body, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveBatch runs requests through POST /v1/solve/batch with retries.
// The batch answers 200 even when individual items fail; per-item
// errors (including per-item 429 shedding with retry advice) are the
// caller's to inspect, deliberately not retried here — retrying a
// whole batch for one shed item would re-solve the others.
func (c *Client) SolveBatch(ctx context.Context, reqs []api.SolveRequest) (*api.BatchResponse, error) {
	return c.SolveBatchOpts(ctx, reqs, nil)
}

// SolveBatchOpts is SolveBatch with per-call options.
func (c *Client) SolveBatchOpts(ctx context.Context, reqs []api.SolveRequest, opts *CallOpts) (*api.BatchResponse, error) {
	var out api.BatchResponse
	if err := c.call(ctx, opts, "/v1/solve/batch", &api.BatchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes GET /v1/healthz once (no retries — a health probe
// that retries until the target looks healthy defeats its purpose).
// It returns nil while serving and an *HTTPError with StatusCode 503
// once the server is draining.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &HTTPError{StatusCode: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	}
	return nil
}

// call drives one logical API call through the retrier: it encodes in
// and hands the body to callBody.
func (c *Client) call(ctx context.Context, opts *CallOpts, path string, in, out any) error {
	c.requests.Add(1)
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	return c.callBody(ctx, opts, path, body, out)
}

// callBody posts an encoded body through the retrier; the caller has
// counted the request. opts may carry a per-call base-URL override; the
// accounting hooks see the resolved target.
func (c *Client) callBody(ctx context.Context, opts *CallOpts, path string, body []byte, out any) error {
	base := c.base
	if opts != nil && opts.BaseURL != "" {
		base = strings.TrimRight(opts.BaseURL, "/")
	}
	if c.onCallStart != nil {
		c.onCallStart(base)
	}
	start := time.Now()
	err := c.retrier.Do(ctx, func(actx context.Context) error {
		return c.post(actx, base, path, body, out)
	})
	if c.onCallEnd != nil {
		c.onCallEnd(base, time.Since(start), err)
	}
	if err != nil {
		c.failures.Add(1)
		if errors.Is(err, resilience.ErrOpen) {
			c.openFast.Add(1)
		}
		return err
	}
	c.successes.Add(1)
	return nil
}

// post performs one HTTP attempt.
func (c *Client) post(ctx context.Context, base, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(resp, data)
	}
	if raw, ok := out.(*json.RawMessage); ok && json.Valid(data) {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %d-byte response: %w", len(data), err)
	}
	return nil
}

// httpError folds a non-200 answer into an *HTTPError, extracting the
// error message and retry advice from the JSON body and the standard
// Retry-After header (the header wins when both are present).
func httpError(resp *http.Response, data []byte) *HTTPError {
	return newHTTPError(resp.StatusCode, resp.Header, data)
}

func newHTTPError(code int, header http.Header, data []byte) *HTTPError {
	he := &HTTPError{StatusCode: code, Msg: strings.TrimSpace(string(data))}
	var body struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(data, &body); err == nil && body.Error != "" {
		he.Msg = body.Error
		if body.RetryAfterSeconds > 0 {
			he.RetryAfter = time.Duration(body.RetryAfterSeconds) * time.Second
		}
	}
	if h := header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
			he.RetryAfter = time.Duration(secs) * time.Second
		} else if t, err := http.ParseTime(h); err == nil {
			// RFC 9110 §10.2.3: Retry-After is either delta-seconds or an
			// HTTP-date. A date in the past (or exactly now) means "no
			// wait", not "no advice".
			if d := time.Until(t); d > 0 {
				he.RetryAfter = d
			}
		}
	}
	return he
}

// Stats is a point-in-time view of the client, captured together so a
// report never mixes instants (successes+failures never exceed
// requests, retries belong to the same horizon).
type Stats struct {
	Requests  uint64 `json:"requests"`
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	Retries   uint64 `json:"retries"`
	// BreakerOpenRejects counts calls refused locally without touching
	// the network (a subset of Failures).
	BreakerOpenRejects uint64 `json:"breaker_open_rejects"`
	// Breaker is the breaker's own consistent snapshot; zero value when
	// the breaker is disabled.
	Breaker resilience.BreakerStats `json:"breaker"`
}

// Stats captures the client counters. Numerators are read before their
// dominating denominator (requests last), mirroring the server's statz
// convention, so Successes+Failures <= Requests always holds in the
// returned struct.
func (c *Client) Stats() Stats {
	st := Stats{
		Successes:          c.successes.Load(),
		Failures:           c.failures.Load(),
		Retries:            c.retries.Load(),
		BreakerOpenRejects: c.openFast.Load(),
	}
	st.Requests = c.requests.Load()
	if c.breaker != nil {
		st.Breaker = c.breaker.Snapshot()
	}
	return st
}
