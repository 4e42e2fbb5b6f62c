package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/pipeline"
)

// OpenPipeline enables the continuous workload pipeline over walDir:
// the query-log WAL is opened (repairing any torn tail), the persisted
// consumption state is recovered, an interrupted window is adopted, and
// the ingest/plan endpoints start answering. Requires OpenJobs first —
// window solves run as checkpointed jobs so they survive crashes the
// same way ad-hoc jobs do. Call before the handler serves traffic.
func (s *Server) OpenPipeline(walDir string, logf func(format string, args ...any)) error {
	if s.pipe != nil {
		return errors.New("server: pipeline already open")
	}
	if s.jobs == nil {
		return errors.New("server: pipeline requires jobs (call OpenJobs first)")
	}
	p, err := pipeline.Open(pipeline.Options{
		Dir:               walDir,
		Window:            s.cfg.PipelineWindow,
		Retention:         s.cfg.PipelineRetention,
		MaxBacklogRecords: s.cfg.PipelineMaxBacklog,
		Algo:              s.cfg.PipelineAlgo,
		Budget:            s.cfg.PipelineBudget,
		Seed:              s.cfg.PipelineSeed,
		Jobs:              &pipelineJobs{s: s},
		Registry:          s.reg,
		Logf:              logf,
	})
	if err != nil {
		return err
	}
	s.pipe = p
	return nil
}

// Pipeline exposes the pipeline (tests and embedders); nil until
// OpenPipeline.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// pipelineJobs adapts the server's job manager to the pipeline's Jobs
// interface, running each window request through the same validation
// and fingerprinting as an external POST /v1/jobs submission.
type pipelineJobs struct{ s *Server }

func (a *pipelineJobs) Submit(req *api.JobRequest) (*api.JobStatus, error) {
	in, algo, apiErr := a.s.prepareSolve(&req.SolveRequest)
	if apiErr != nil {
		return nil, errors.New(apiErr.Msg)
	}
	return a.s.jobs.Submit(req, algo, in.Fingerprint())
}

func (a *pipelineJobs) Status(id string) (*api.JobStatus, error) { return a.s.jobs.Get(id) }

func (a *pipelineJobs) Result(id string) (*api.SolveResponse, *api.JobStatus, error) {
	return a.s.jobs.Result(id)
}

func (a *pipelineJobs) Cancel(id string) (*api.JobStatus, error) { return a.s.jobs.Cancel(id) }

// errPipelineDisabled answers the pipeline routes while OpenPipeline has
// not run.
var errPipelineDisabled = errorf(http.StatusNotImplemented,
	"continuous pipeline disabled: start the server with a WAL directory (-wal-dir)")

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.pipe == nil {
		api.WriteError(w, errPipelineDisabled)
		return
	}
	var req api.IngestRequest
	if apiErr := api.DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req); apiErr != nil {
		s.badRequests.Add(1)
		api.WriteError(w, apiErr)
		return
	}
	accepted, err := s.pipe.Ingest(req.Lines)
	if err != nil {
		var le *pipeline.LineError
		switch {
		case errors.As(err, &le):
			s.badRequests.Add(1)
			api.WriteError(w, errorf(http.StatusBadRequest, "%v", le))
		case errors.Is(err, pipeline.ErrBacklog):
			s.rejected.Add(1)
			// Advise one window: that is the cadence at which backlog
			// drains, so retrying sooner can only meet the same answer.
			e := errorf(http.StatusTooManyRequests, "ingest backlog full, retry later")
			e.RetryAfterSeconds = int(math.Ceil(s.pipe.Window().Seconds()))
			api.WriteError(w, e)
		default:
			api.WriteError(w, errorf(http.StatusInternalServerError, "ingest failed: %v", err))
		}
		return
	}
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{
		Accepted:       accepted,
		BacklogRecords: s.pipe.Stats().BacklogRecords,
	})
}

func (s *Server) handlePlanCurrent(w http.ResponseWriter, r *http.Request) {
	if s.pipe == nil {
		api.WriteError(w, errPipelineDisabled)
		return
	}
	resp, err := s.pipe.CurrentPlan()
	if err != nil {
		if errors.Is(err, pipeline.ErrNoPlan) {
			api.WriteError(w, errorf(http.StatusNotFound, "no plan published yet"))
			return
		}
		api.WriteError(w, errorf(http.StatusInternalServerError, "reading current plan: %v", err))
		return
	}
	// Conditional GET: the ETag derives from the published plan's instance
	// fingerprint plus the window sequence, so a poller (bccwatch, an
	// enforcement agent) re-downloads the plan body only when a new window
	// actually published. 304 answers cost no solve and no body bytes.
	etag := planETag(resp)
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// planETag is the strong validator for GET /v1/plan/current:
// "<fingerprint>-<seq>". The fingerprint alone is not enough — a window
// can republish an identical instance with a fresher sequence — and the
// sequence alone would not survive a WAL-truncating restart, so both go
// in.
func planETag(resp *api.CurrentPlanResponse) string {
	return `"` + resp.Plan.Fingerprint + "-" + strconv.FormatUint(resp.Seq, 10) + `"`
}

// etagMatches implements the If-None-Match comparison: a comma-split
// list of entity tags, each possibly W/-prefixed (weak comparison is
// fine for a cache validator), or the "*" wildcard.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag || cand == "*" {
			return true
		}
	}
	return false
}
