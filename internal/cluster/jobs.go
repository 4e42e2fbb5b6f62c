package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/resilience"
)

// Async jobs through the routing tier. A job outlives any single HTTP
// exchange, so the gateway cannot stay stateless the way it does for
// solves: it mints an external job ID, remembers which backend owns the
// job (and the original request), and — when that backend dies mid-job
// — resubmits the job once to another backend, transparently to the
// polling client. The external ID never changes across a resubmission;
// the JobStatus the caller sees carries Resubmitted=true and the new
// owning backend instead.
//
// A submission must never reach two backends at once: that would create
// two durable jobs solving the same instance. Failover is one-shot and
// only before the first backend accepted the submission (submit
// failover) or after the owning backend is observed dead
// (resubmission).

// ErrJobUnknown is returned for an external job ID the gateway is not
// tracking (never submitted here, or evicted from the bounded tracker).
var ErrJobUnknown = errors.New("cluster: unknown job id")

// maxTrackedJobs bounds the gateway's job tracker. Terminal entries are
// evicted first (their backends still serve the record); if the table
// is all live jobs, the oldest is dropped and its pollers get 404 from
// the gateway while the job itself keeps running on its backend.
const maxTrackedJobs = 4096

// gateJob is one tracked job: the external identity plus the owning
// backend and enough request context to resubmit it elsewhere.
type gateJob struct {
	mu          sync.Mutex
	externalID  string
	backendURL  string
	backendID   string // the job's ID on the owning backend
	fp          string
	req         *api.JobRequest
	resubmitted bool
	terminal    bool
	createdUnix int64
}

// rewriteLocked translates a backend's JobStatus into the external view
// (caller holds e.mu): external ID, owning backend, resubmission flag.
func (e *gateJob) rewriteLocked(st *api.JobStatus) *api.JobStatus {
	out := *st
	out.ID = e.externalID
	out.Backend = e.backendURL
	out.Resubmitted = e.resubmitted
	if api.JobTerminal(out.State) {
		e.terminal = true
	}
	return &out
}

// newExternalID mints a gateway job ID (16 hex chars, the same shape as
// backend job IDs, so logs read uniformly).
func newExternalID() (string, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("cluster: generating job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// trackJob inserts a tracker entry, evicting beyond the cap (terminal
// first, then oldest).
func (c *Cluster) trackJob(e *gateJob) {
	c.jobsMu.Lock()
	defer c.jobsMu.Unlock()
	if c.trackedJobs == nil {
		c.trackedJobs = map[string]*gateJob{}
	}
	c.trackedJobs[e.externalID] = e
	if len(c.trackedJobs) <= maxTrackedJobs {
		return
	}
	type aged struct {
		id       string
		terminal bool
		ts       int64
	}
	all := make([]aged, 0, len(c.trackedJobs))
	for id, j := range c.trackedJobs {
		j.mu.Lock()
		all = append(all, aged{id, j.terminal, j.createdUnix})
		j.mu.Unlock()
	}
	sort.Slice(all, func(i, k int) bool {
		if all[i].terminal != all[k].terminal {
			return all[i].terminal // terminal evicted before live
		}
		return all[i].ts < all[k].ts
	})
	for _, a := range all {
		if len(c.trackedJobs) <= maxTrackedJobs {
			break
		}
		delete(c.trackedJobs, a.id)
		if !a.terminal {
			c.jobsDroppedLive.Add(1)
		}
	}
}

func (c *Cluster) trackedJob(id string) (*gateJob, bool) {
	c.jobsMu.Lock()
	defer c.jobsMu.Unlock()
	e, ok := c.trackedJobs[id]
	return e, ok
}

// TrackedJobs reports the tracker's current size.
func (c *Cluster) TrackedJobs() int {
	c.jobsMu.Lock()
	defer c.jobsMu.Unlock()
	return len(c.trackedJobs)
}

// SubmitJob routes an async job submission by fingerprint affinity with
// one cross-backend failover. On success the returned status carries the
// gateway's external job ID; all later polls must use it.
func (c *Cluster) SubmitJob(ctx context.Context, req *api.JobRequest, fp string) (*api.JobStatus, RouteInfo, error) {
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

	st, err := c.callSubmitJob(ctx, primary, req)
	owner := primary
	if err != nil && ctx.Err() == nil && client.Retryable(err) && secondary != nil {
		route.FailedOver = true
		c.failovers.Add(1)
		st, err = c.callSubmitJob(ctx, secondary, req)
		owner = secondary
	}
	if err != nil {
		return nil, route, err
	}
	route.BackendURL, route.BackendID = owner.url, owner.displayID()

	ext, err := newExternalID()
	if err != nil {
		// The job is accepted on the backend; answering an error now
		// would orphan it. Fall back to the backend's own ID — unique
		// enough in practice, and still routable via the tracker.
		ext = st.ID
	}
	e := &gateJob{
		externalID:  ext,
		backendURL:  owner.url,
		backendID:   st.ID,
		fp:          fp,
		req:         req,
		createdUnix: time.Now().UnixMilli(),
	}
	c.trackJob(e)
	c.jobSubmits.Add(1)

	e.mu.Lock()
	out := e.rewriteLocked(st)
	e.mu.Unlock()
	return out, route, nil
}

// JobStatus polls a tracked job's status on its owning backend,
// resubmitting the job once to another backend when the owner is
// observed dead (unreachable and ineligible, or answering 404 after
// losing its store).
func (c *Cluster) JobStatus(ctx context.Context, externalID string) (*api.JobStatus, error) {
	e, ok := c.trackedJob(externalID)
	if !ok {
		return nil, ErrJobUnknown
	}
	st, err := c.jobCall(ctx, e, func(b *backend, backendID string) (*api.JobStatus, error) {
		return c.callJobStatus(ctx, b, backendID)
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// JobResult fetches a tracked job's result from its owning backend.
// result is non-nil once the job completed; status carries progress
// while it runs. A failed/canceled job surfaces the backend's 409.
func (c *Cluster) JobResult(ctx context.Context, externalID string) (*api.SolveResponse, *api.JobStatus, error) {
	e, ok := c.trackedJob(externalID)
	if !ok {
		return nil, nil, ErrJobUnknown
	}
	var result *api.SolveResponse
	st, err := c.jobCall(ctx, e, func(b *backend, backendID string) (*api.JobStatus, error) {
		res, status, err := c.callJobResult(ctx, b, backendID)
		if err != nil {
			return nil, err
		}
		result = res
		if status == nil {
			// Completed: the body was the result; synthesize the terminal
			// status for rewriting.
			return &api.JobStatus{ID: backendID, State: api.JobCompleted}, nil
		}
		return status, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if result != nil {
		return result, st, nil
	}
	return nil, st, nil
}

// CancelJob proxies a cancel to the owning backend. No resubmission on
// failure — canceling a job on a dead backend is already its outcome.
func (c *Cluster) CancelJob(ctx context.Context, externalID string) (*api.JobStatus, error) {
	e, ok := c.trackedJob(externalID)
	if !ok {
		return nil, ErrJobUnknown
	}
	e.mu.Lock()
	url, backendID := e.backendURL, e.backendID
	e.mu.Unlock()
	b := c.backendByURL(url)
	if b == nil {
		return nil, fmt.Errorf("cluster: job %s: owning backend %s left the cluster", externalID, url)
	}
	st, err := c.callCancelJob(ctx, b, backendID)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	out := e.rewriteLocked(st)
	e.mu.Unlock()
	return out, nil
}

// ListJobs scatter-gathers GET /v1/jobs across every eligible backend
// and merges the answers, translating tracked jobs to their external
// IDs (jobs submitted directly to a backend, around the gateway, appear
// under their backend ID with the backend URL filled in).
func (c *Cluster) ListJobs(ctx context.Context) *api.JobList {
	m := c.members.Load()
	// Reverse index: backendURL+backendID -> tracked entry.
	type key struct{ url, id string }
	reverse := map[key]*gateJob{}
	c.jobsMu.Lock()
	for _, e := range c.trackedJobs {
		e.mu.Lock()
		reverse[key{e.backendURL, e.backendID}] = e
		e.mu.Unlock()
	}
	c.jobsMu.Unlock()

	var mu sync.Mutex
	var out []api.JobStatus
	var wg sync.WaitGroup
	for _, b := range m.list {
		if !b.eligible() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			list, err := c.callListJobs(ctx, b)
			if err != nil {
				return // a dead backend degrades the listing, not the call
			}
			mu.Lock()
			defer mu.Unlock()
			for _, st := range list.Jobs {
				if e, ok := reverse[key{b.url, st.ID}]; ok {
					e.mu.Lock()
					out = append(out, *e.rewriteLocked(&st))
					e.mu.Unlock()
					continue
				}
				st.Backend = b.url
				out = append(out, st)
			}
		}(b)
	}
	wg.Wait()
	sort.Slice(out, func(i, k int) bool {
		if out[i].CreatedUnixMS != out[k].CreatedUnixMS {
			return out[i].CreatedUnixMS > out[k].CreatedUnixMS
		}
		return out[i].ID > out[k].ID
	})
	return &api.JobList{Jobs: out}
}

// jobCall runs one poll against the job's owning backend, detecting a
// dead owner and resubmitting the job once. call receives the resolved
// backend and the job's current backend-side ID and returns the status
// to rewrite.
func (c *Cluster) jobCall(ctx context.Context, e *gateJob, call func(b *backend, backendID string) (*api.JobStatus, error)) (*api.JobStatus, error) {
	e.mu.Lock()
	url, backendID := e.backendURL, e.backendID
	e.mu.Unlock()

	b := c.backendByURL(url)
	var st *api.JobStatus
	var err error
	if b != nil {
		st, err = call(b, backendID)
		if err == nil {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.rewriteLocked(st), nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	} else {
		err = fmt.Errorf("cluster: owning backend %s left the cluster", url)
	}

	if !c.ownerLost(b, err) {
		return nil, err
	}
	st, rerr := c.resubmitJob(ctx, e, url)
	if rerr != nil {
		return nil, fmt.Errorf("owning backend %s lost job %s (%v); resubmission failed: %w", url, e.externalID, err, rerr)
	}
	return st, nil
}

// ownerLost decides whether a poll failure means the owning backend has
// lost the job for good: the backend left the membership, it answered
// 404 (its store no longer has the record — wiped or misconfigured), or
// the call failed retryably while the backend probes ineligible (down,
// not just slow). A transient error against a healthy backend is NOT a
// loss — the next poll will reach it.
func (c *Cluster) ownerLost(b *backend, err error) bool {
	if b == nil {
		return true
	}
	var he *client.HTTPError
	if errors.As(err, &he) {
		if he.StatusCode == http.StatusNotFound {
			return true
		}
		return retryableStatusCluster(he.StatusCode) && !b.eligible()
	}
	if errors.Is(err, resilience.ErrOpen) {
		return !b.eligible()
	}
	// Transport-level failure: trust it only when the prober agrees the
	// backend is gone.
	return client.Retryable(err) && !b.eligible()
}

// retryableStatusCluster mirrors the client's retry classification for
// status codes (429/408/5xx).
func retryableStatusCluster(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusRequestTimeout || code >= 500
}

// resubmitJob moves a lost job to a new backend, once per job lifetime.
// The original submission request is replayed — the new backend starts
// from scratch (checkpoints live with the dead backend), which
// duplicates work but never loses the job.
func (c *Cluster) resubmitJob(ctx context.Context, e *gateJob, deadURL string) (*api.JobStatus, error) {
	e.mu.Lock()
	if e.resubmitted {
		e.mu.Unlock()
		return nil, errors.New("job already resubmitted once")
	}
	if e.req == nil {
		e.mu.Unlock()
		return nil, errors.New("no stored request to resubmit")
	}
	fp, req := e.fp, e.req
	e.mu.Unlock()

	primary, secondary, _ := c.pick(fp, map[string]bool{deadURL: true})
	if primary == nil {
		c.noBackend.Add(1)
		return nil, ErrNoBackends
	}
	st, err := c.callSubmitJob(ctx, primary, req)
	owner := primary
	if err != nil && ctx.Err() == nil && client.Retryable(err) && secondary != nil {
		st, err = c.callSubmitJob(ctx, secondary, req)
		owner = secondary
	}
	if err != nil {
		return nil, err
	}
	c.jobResubmits.Add(1)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.backendURL, e.backendID = owner.url, st.ID
	e.resubmitted = true
	return e.rewriteLocked(st), nil
}

// Per-backend job calls, each under the backend's breaker with outcome
// accounting (mirrors callSolve).

func (c *Cluster) callSubmitJob(ctx context.Context, b *backend, req *api.JobRequest) (*api.JobStatus, error) {
	if !b.breaker.Allow() {
		return nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	start := time.Now()
	st, err := c.cl.SubmitJobOpts(ctx, req, &client.CallOpts{BaseURL: b.url})
	c.recordOutcome(b, time.Since(start), err)
	return st, err
}

func (c *Cluster) callJobStatus(ctx context.Context, b *backend, id string) (*api.JobStatus, error) {
	if !b.breaker.Allow() {
		return nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	st, err := c.cl.JobStatusOpts(ctx, id, &client.CallOpts{BaseURL: b.url})
	c.recordOutcome(b, 0, err)
	return st, err
}

func (c *Cluster) callJobResult(ctx context.Context, b *backend, id string) (*api.SolveResponse, *api.JobStatus, error) {
	if !b.breaker.Allow() {
		return nil, nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	res, st, err := c.cl.JobResultOpts(ctx, id, &client.CallOpts{BaseURL: b.url})
	if errors.Is(err, client.ErrJobNotCompleted) {
		// A clean terminal answer, not a backend failure.
		c.recordOutcome(b, 0, nil)
		return nil, nil, err
	}
	c.recordOutcome(b, 0, err)
	return res, st, err
}

func (c *Cluster) callCancelJob(ctx context.Context, b *backend, id string) (*api.JobStatus, error) {
	if !b.breaker.Allow() {
		return nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	st, err := c.cl.CancelJobOpts(ctx, id, &client.CallOpts{BaseURL: b.url})
	c.recordOutcome(b, 0, err)
	return st, err
}

func (c *Cluster) callListJobs(ctx context.Context, b *backend) (*api.JobList, error) {
	if !b.breaker.Allow() {
		return nil, fmt.Errorf("backend %s: %w", b.url, resilience.ErrOpen)
	}
	b.acct.requests.Add(1)
	list, err := c.cl.ListJobsOpts(ctx, &client.CallOpts{BaseURL: b.url})
	c.recordOutcome(b, 0, err)
	return list, err
}

// JobStats is the cluster's async-job routing view in Stats.
type JobStats struct {
	// Submitted counts jobs accepted through the gateway; Resubmitted
	// counts transparent re-submissions after an owning backend died.
	Submitted   uint64 `json:"submitted"`
	Resubmitted uint64 `json:"resubmitted"`
	// Tracked is the tracker's current size; DroppedLive counts live
	// (non-terminal) entries evicted by the tracker cap — their jobs keep
	// running on their backends, but the gateway can no longer answer
	// polls for them.
	Tracked     int    `json:"tracked"`
	DroppedLive uint64 `json:"dropped_live"`
}

// jobStats captures the job counters.
func (c *Cluster) jobStats() JobStats {
	return JobStats{
		Submitted:   c.jobSubmits.Load(),
		Resubmitted: c.jobResubmits.Load(),
		Tracked:     c.TrackedJobs(),
		DroppedLive: c.jobsDroppedLive.Load(),
	}
}

// initJobMetrics registers the bcc_gate_job_* series (called from
// initMetrics).
func (c *Cluster) initJobMetrics() {
	c.reg.CounterFunc("bcc_gate_job_submits_total", "Async jobs accepted through the gateway.", nil,
		func() float64 { return float64(c.jobSubmits.Load()) })
	c.reg.CounterFunc("bcc_gate_job_resubmits_total", "Jobs transparently resubmitted after their owning backend died.", nil,
		func() float64 { return float64(c.jobResubmits.Load()) })
	c.reg.GaugeFunc("bcc_gate_jobs_tracked", "Jobs currently tracked by the gateway.", nil,
		func() float64 { return float64(c.TrackedJobs()) })
	c.reg.CounterFunc("bcc_gate_jobs_dropped_live_total", "Live tracker entries evicted by the cap (jobs keep running on their backends).", nil,
		func() float64 { return float64(c.jobsDroppedLive.Load()) })
}
