package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/resilience"
)

// Job helpers: submit/poll/await wrappers over the async job endpoints,
// sharing the client's retry policy, breaker and per-backend accounting
// hooks with the synchronous calls. The result endpoint's status codes
// carry the protocol (200 result, 202 still running, 409 ended without
// a result), so these helpers never sniff body shapes.

// ErrJobNotCompleted is wrapped into the error a result fetch returns
// for a job that ended failed or canceled (HTTP 409); the *HTTPError in
// the same chain carries the server's reason.
var ErrJobNotCompleted = errors.New("job ended without a result")

// SubmitJob submits an async solve through POST /v1/jobs and returns
// the queued job's status. A successful return means the server
// persisted the job: it will run to a terminal state even across server
// restarts.
func (c *Client) SubmitJob(ctx context.Context, req *api.JobRequest) (*api.JobStatus, error) {
	return c.SubmitJobOpts(ctx, req, nil)
}

// SubmitJobOpts is SubmitJob with per-call options.
func (c *Client) SubmitJobOpts(ctx context.Context, req *api.JobRequest, opts *CallOpts) (*api.JobStatus, error) {
	var st api.JobStatus
	err := c.callMethod(ctx, opts, http.MethodPost, "/v1/jobs", req, func(code int, data []byte) error {
		if code != http.StatusAccepted {
			return errors.New("expected 202")
		}
		return json.Unmarshal(data, &st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// JobStatus fetches a job's current status (GET /v1/jobs/{id}).
func (c *Client) JobStatus(ctx context.Context, id string) (*api.JobStatus, error) {
	return c.JobStatusOpts(ctx, id, nil)
}

// JobStatusOpts is JobStatus with per-call options.
func (c *Client) JobStatusOpts(ctx context.Context, id string, opts *CallOpts) (*api.JobStatus, error) {
	var st api.JobStatus
	err := c.callMethod(ctx, opts, http.MethodGet, "/v1/jobs/"+id, nil, func(code int, data []byte) error {
		if code != http.StatusOK {
			return errors.New("expected 200")
		}
		return json.Unmarshal(data, &st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// ListJobs fetches every job the backend knows (GET /v1/jobs).
func (c *Client) ListJobs(ctx context.Context) (*api.JobList, error) {
	return c.ListJobsOpts(ctx, nil)
}

// ListJobsOpts is ListJobs with per-call options.
func (c *Client) ListJobsOpts(ctx context.Context, opts *CallOpts) (*api.JobList, error) {
	var list api.JobList
	err := c.callMethod(ctx, opts, http.MethodGet, "/v1/jobs", nil, func(code int, data []byte) error {
		if code != http.StatusOK {
			return errors.New("expected 200")
		}
		return json.Unmarshal(data, &list)
	})
	if err != nil {
		return nil, err
	}
	return &list, nil
}

// JobResult fetches a job's result. result is non-nil once the job
// completed; while the job is queued or running, result is nil and
// status carries the anytime progress. A job that ended failed or
// canceled answers an error wrapping ErrJobNotCompleted.
func (c *Client) JobResult(ctx context.Context, id string) (*api.SolveResponse, *api.JobStatus, error) {
	return c.JobResultOpts(ctx, id, nil)
}

// JobResultOpts is JobResult with per-call options.
func (c *Client) JobResultOpts(ctx context.Context, id string, opts *CallOpts) (*api.SolveResponse, *api.JobStatus, error) {
	var (
		result *api.SolveResponse
		status *api.JobStatus
	)
	err := c.callMethod(ctx, opts, http.MethodGet, "/v1/jobs/"+id+"/result", nil, func(code int, data []byte) error {
		switch code {
		case http.StatusOK:
			var resp api.SolveResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				return err
			}
			result = &resp
			return nil
		case http.StatusAccepted:
			var st api.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return err
			}
			status = &st
			return nil
		default:
			return fmt.Errorf("expected 200 or 202")
		}
	})
	if err != nil {
		var he *HTTPError
		if errors.As(err, &he) && he.StatusCode == http.StatusConflict {
			return nil, nil, fmt.Errorf("%w: %s", ErrJobNotCompleted, he.Msg)
		}
		return nil, nil, err
	}
	return result, status, nil
}

// CancelJob asks the server to stop a job (POST /v1/jobs/{id}/cancel).
// The returned status reflects the cancel: terminal immediately for a
// queued job, at the next slice boundary for a running one.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.JobStatus, error) {
	return c.CancelJobOpts(ctx, id, nil)
}

// CancelJobOpts is CancelJob with per-call options.
func (c *Client) CancelJobOpts(ctx context.Context, id string, opts *CallOpts) (*api.JobStatus, error) {
	var st api.JobStatus
	err := c.callMethod(ctx, opts, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, func(code int, data []byte) error {
		if code != http.StatusOK {
			return errors.New("expected 200")
		}
		return json.Unmarshal(data, &st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// AwaitJob polls a job's status every poll interval (default 500ms)
// until it reaches a terminal state or ctx expires, then returns the
// final status — and, for a completed job, its result. A failed or
// canceled job returns the terminal status with a nil result and a nil
// error; the status carries the reason.
func (c *Client) AwaitJob(ctx context.Context, id string, poll time.Duration) (*api.SolveResponse, *api.JobStatus, error) {
	return c.AwaitJobOpts(ctx, id, poll, nil)
}

// AwaitJobOpts is AwaitJob with per-call options.
func (c *Client) AwaitJobOpts(ctx context.Context, id string, poll time.Duration, opts *CallOpts) (*api.SolveResponse, *api.JobStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := c.JobStatusOpts(ctx, id, opts)
		if err != nil {
			return nil, nil, err
		}
		if api.JobTerminal(st.State) {
			if st.State != api.JobCompleted {
				return nil, st, nil
			}
			result, _, err := c.JobResultOpts(ctx, id, opts)
			if err != nil {
				return nil, st, err
			}
			return result, st, nil
		}
		select {
		case <-ctx.Done():
			return nil, st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// callMethod drives one logical call of any method through the retrier
// (call is its POST-200-only ancestor, kept verbatim for the hot solve
// path). handle classifies the decoded attempt: a non-nil return on a
// non-2xx code is replaced by the richer *HTTPError so retry discipline
// and breaker accounting see the status code.
func (c *Client) callMethod(ctx context.Context, opts *CallOpts, method, path string, in any, handle func(code int, data []byte) error) error {
	return c.callMethodHeader(ctx, opts, method, path, in, nil,
		func(code int, _ http.Header, data []byte) error { return handle(code, data) })
}

// errExpected, returned by handle for a non-2xx answer, marks that
// answer as one the call expects: the call still fails with its
// *HTTPError, but is not counted in Stats.Failures.
var errExpected = errors.New("client: expected answer")

// callMethodHeader is callMethod with request headers attached to every
// attempt and response headers surfaced to handle — the conditional-GET
// (If-None-Match / ETag) variant.
func (c *Client) callMethodHeader(ctx context.Context, opts *CallOpts, method, path string, in any, reqHeader http.Header, handle func(code int, header http.Header, data []byte) error) error {
	base := c.base
	if opts != nil && opts.BaseURL != "" {
		base = strings.TrimRight(opts.BaseURL, "/")
	}
	c.requests.Add(1)
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	if c.onCallStart != nil {
		c.onCallStart(base)
	}
	start := time.Now()
	expected := false
	err := c.retrier.Do(ctx, func(actx context.Context) error {
		expected = false
		code, header, data, err := c.roundTrip(actx, method, base, path, reqHeader, body)
		if err != nil {
			return err
		}
		if herr := handle(code, header, data); herr != nil {
			if code/100 != 2 {
				expected = herr == errExpected
				return newHTTPError(code, header, data)
			}
			return fmt.Errorf("client: decoding %d response: %w", code, herr)
		}
		return nil
	})
	if c.onCallEnd != nil {
		c.onCallEnd(base, time.Since(start), err)
	}
	if err != nil {
		if !expected {
			c.failures.Add(1)
		}
		if errors.Is(err, resilience.ErrOpen) {
			c.openFast.Add(1)
		}
		return err
	}
	c.successes.Add(1)
	return nil
}

// roundTrip performs one HTTP attempt of any method and returns the
// status, headers and capped body.
func (c *Client) roundTrip(ctx context.Context, method, base, path string, header http.Header, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("client: reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, data, nil
}
