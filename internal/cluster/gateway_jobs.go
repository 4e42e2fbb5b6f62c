package cluster

import (
	"errors"
	"net/http"

	"repro/internal/api"
	"repro/internal/client"
)

// Gateway job routes: the same five endpoints a single bccserver
// exposes, fronted by the cluster's job tracker. IDs in and out are the
// gateway's external IDs; which backend actually owns a job (and
// whether it had to move) is visible in the status body, never in the
// URL a client has to remember.

func (g *Gateway) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	var req api.JobRequest
	if apiErr := api.DecodeJSON(w, r, g.cfg.MaxBodyBytes, &req); apiErr != nil {
		g.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	fp, apiErr := RouteFingerprint(&req.SolveRequest)
	if apiErr != nil {
		g.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	st, route, err := g.cl.SubmitJob(r.Context(), &req, fp)
	if err != nil {
		api.WriteError(w, jobRouteError(err))
		return
	}
	w.Header().Set(api.BackendHeader, route.BackendID)
	api.WriteJSON(w, http.StatusAccepted, st)
}

func (g *Gateway) handleJobList(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	api.WriteJSON(w, http.StatusOK, g.cl.ListJobs(r.Context()))
}

func (g *Gateway) handleJobGet(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	st, err := g.cl.JobStatus(r.Context(), r.PathValue("id"))
	if err != nil {
		api.WriteError(w, jobRouteError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

func (g *Gateway) handleJobResult(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	result, st, err := g.cl.JobResult(r.Context(), r.PathValue("id"))
	if err != nil {
		api.WriteError(w, jobRouteError(err))
		return
	}
	if result != nil {
		api.WriteJSON(w, http.StatusOK, result)
		return
	}
	api.WriteJSON(w, http.StatusAccepted, st)
}

func (g *Gateway) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	st, err := g.cl.CancelJob(r.Context(), r.PathValue("id"))
	if err != nil {
		api.WriteError(w, jobRouteError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

// jobRouteError extends routeError with the job-specific conditions:
// an untracked ID is the gateway's own 404, and a job that ended
// without a result keeps the backend's 409 contract (the client wraps
// that answer into ErrJobNotCompleted, shedding the HTTPError, so
// routeError alone would misreport it as a 502).
func jobRouteError(err error) *api.Error {
	switch {
	case errors.Is(err, ErrJobUnknown):
		return api.Errorf(http.StatusNotFound, "unknown job id")
	case errors.Is(err, client.ErrJobNotCompleted):
		return api.Errorf(http.StatusConflict, "%v", err)
	default:
		return routeError(err)
	}
}
