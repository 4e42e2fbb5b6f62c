package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	bcc "repro"
	"repro/internal/api"
	"repro/internal/incr"
	"repro/internal/jobs"
	"repro/internal/propset"
)

// OpenJobs enables the async solve-job subsystem over dir: the job
// store is scanned, incomplete jobs are requeued (warm-started from
// their last checkpoint), and the job endpoints under /v1/jobs start
// answering. Call it once, before the handler serves traffic. logf,
// when non-nil, receives resume/quarantine log lines.
func (s *Server) OpenJobs(dir string, logf func(format string, args ...any)) error {
	if s.jobs != nil {
		return errors.New("server: jobs already open")
	}
	m, err := jobs.Open(jobs.Config{
		Dir:                dir,
		Workers:            s.cfg.JobWorkers,
		MaxJobs:            s.cfg.JobMaxJobs,
		CheckpointInterval: s.cfg.JobCheckpointInterval,
		DefaultDeadline:    s.cfg.JobDefaultDeadline,
		MaxDeadline:        s.cfg.JobMaxDeadline,
		Solve:              s.jobSolve,
		Registry:           s.reg,
		Logf:               logf,
	})
	if err != nil {
		return err
	}
	s.jobs = m
	return nil
}

// Jobs exposes the job manager (tests and embedders); nil until
// OpenJobs.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// jobSolve is the jobs.SolveFunc: one anytime solve slice on a job
// worker, warm-started from the checkpoint. It shares validation
// (prepareSolve) and solver dispatch (runSolve) with the synchronous
// path, so a job accepts exactly the inputs /v1/solve accepts, and a
// completed full solve feeds the same solution cache.
func (s *Server) jobSolve(ctx context.Context, req *api.JobRequest, cp *jobs.Checkpoint) (*api.SolveResponse, error) {
	in, algo, fp, apiErr := s.prepareSolve(&req.SolveRequest)
	if apiErr != nil {
		// Validation failures are permanent: fail the job with the
		// reason rather than retrying a request that can never parse.
		return nil, errors.New(apiErr.Msg)
	}
	// A checkpoint (this job's own earlier progress) always wins; the
	// request's WarmPlan only seeds the first slice, after which the
	// checkpoint supersedes it.
	warm := warmSets(in, cp)
	warmSource := ""
	if warm == nil && len(req.WarmPlan) > 0 {
		if w := incr.Repair(in, req.WarmPlan); len(w) > 0 {
			warm, warmSource = w, api.WarmSourceRequest
			s.incrWarmRequest.Add(1)
		}
	}
	s.solves.Add(1)
	s.inflight.Add(1)
	t0 := time.Now()
	resp := s.runSolve(ctx, in, algo, &req.SolveRequest, fp, in.Fingerprint2(), warm, warmSource)
	s.inflight.Add(-1)
	s.observeSolve(algo, resp.Status, time.Since(t0).Seconds())
	if resp.Status == bcc.Complete.String() && !req.NoCache {
		// Same contract as the synchronous path: only full solves are
		// cached, so a later identical /v1/solve hits instantly.
		tmpl := *resp
		s.cache.Put(cacheKey(fp, algo, &req.SolveRequest), &tmpl)
	}
	return resp, nil
}

// warmSets converts a checkpoint's plan back into property sets against
// the instance's universe. Names missing from the universe (possible
// only if the instance bytes changed under the same fingerprint, i.e.
// never in practice) drop that classifier — warm-start is an
// optimization, not a correctness requirement.
func warmSets(in *bcc.Instance, cp *jobs.Checkpoint) []bcc.PropSet {
	if cp == nil || len(cp.Classifiers) == 0 {
		return nil
	}
	u := in.Universe()
	warm := make([]bcc.PropSet, 0, len(cp.Classifiers))
	for _, c := range cp.Classifiers {
		ids := make([]propset.ID, 0, len(c.Props))
		ok := true
		for _, name := range c.Props {
			id, found := u.Lookup(name)
			if !found {
				ok = false
				break
			}
			ids = append(ids, id)
		}
		if ok && len(ids) > 0 {
			warm = append(warm, propset.New(ids...))
		}
	}
	return warm
}

// errJobsDisabled answers the job routes while OpenJobs has not run.
var errJobsDisabled = errorf(http.StatusNotImplemented,
	"async jobs disabled: start the server with a jobs directory (-jobs-dir)")

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		api.WriteError(w, errJobsDisabled)
		return
	}
	var req api.JobRequest
	if apiErr := api.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req); apiErr != nil {
		s.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	// Validate at submission so the caller learns about a bad request
	// now, with a 400 — not later as a failed job.
	_, algo, fp, apiErr := s.prepareSolve(&req.SolveRequest)
	if apiErr != nil {
		s.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	st, err := s.jobs.Submit(&req, algo, fp)
	if err != nil {
		api.WriteError(w, jobs.ErrHTTP(err))
		return
	}
	api.WriteJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	if s.jobs == nil {
		api.WriteError(w, errJobsDisabled)
		return
	}
	sts := s.jobs.List()
	list := api.JobList{Jobs: make([]api.JobStatus, len(sts))}
	for i, st := range sts {
		list.Jobs[i] = *st
	}
	api.WriteJSON(w, http.StatusOK, list)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		api.WriteError(w, errJobsDisabled)
		return
	}
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, jobs.ErrHTTP(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// handleJobResult answers 200 with the SolveResponse once the job
// completed, 202 with the current JobStatus (anytime progress included)
// while it is still queued or running, and 409 with the reason for a
// job that ended without a result (failed or canceled) — a poller
// switches on the status code alone, never sniffing body shapes.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		api.WriteError(w, errJobsDisabled)
		return
	}
	resp, st, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, jobs.ErrHTTP(err))
		return
	}
	if !api.JobTerminal(st.State) {
		api.WriteJSON(w, http.StatusAccepted, st)
		return
	}
	if resp == nil {
		reason := st.Error
		if reason == "" {
			reason = st.State
		}
		api.WriteError(w, errorf(http.StatusConflict, "job %s ended %s without a result: %s", st.ID, st.State, reason))
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		api.WriteError(w, errJobsDisabled)
		return
	}
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, jobs.ErrHTTP(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}
