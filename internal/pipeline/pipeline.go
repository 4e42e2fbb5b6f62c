// Package pipeline is the supervised re-solve scheduler of the
// continuous workload loop: it tails the query-log WAL (internal/wal),
// assembles arriving records into tumbling windows, runs each window as
// a checkpointed solve job (internal/jobs), and atomically publishes a
// last-good plan that survives crashes.
//
// Crash-safety is position-based: the pipeline's whole consumption
// state — WAL position, cumulative counters, the published plan, and
// any in-flight window — lives in one bccplan/1 record rewritten
// atomically at every transition. On restart the scheduler adopts the
// in-flight window (awaiting its job, taking its finished result, or
// rebuilding the request from the WAL byte range it recorded) instead
// of re-solving completed windows or dropping acknowledged records.
//
// Falling behind degrades explicitly, never silently (the "degradation
// ladder", DESIGN.md §16):
//
//  1. on time   — each tick solves the pending records as one window;
//  2. coalesce  — a backlog spanning several windows is folded into one
//     solve (bcc_pipeline_windows_coalesced_total counts the extras);
//  3. skip      — records older than SkipAfter are advanced past
//     without solving (bcc_pipeline_windows_skipped_total,
//     bcc_pipeline_records_skipped_total), because a plan computed from
//     them would be staler than the last-good plan already serving;
//  4. shed      — Ingest refuses new lines once the backlog exceeds
//     MaxBacklogRecords (ErrBacklog → HTTP 429), protecting the WAL
//     from unbounded growth when the solver cannot keep up.
//
// Throughout, the last successfully published plan keeps serving, with
// bcc_pipeline_plan_age_seconds exposing exactly how stale it is.
package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/propset"
	"repro/internal/querylog"
	"repro/internal/resilience"
	"repro/internal/wal"
)

// StateFormat frames the persisted pipeline state record.
const StateFormat = "bccplan/1"

const stateFile = "plan.bccplan"

// ErrBacklog is returned by Ingest when the unconsumed backlog exceeds
// Options.MaxBacklogRecords; the HTTP layer maps it to 429 so clients
// back off instead of growing the WAL without bound.
var ErrBacklog = errors.New("pipeline: ingest backlog full")

// ErrNoPlan is returned by CurrentPlan before the first publish.
var ErrNoPlan = errors.New("pipeline: no plan published yet")

// errClosing aborts an in-progress wait when Close is called; the
// in-flight window stays persisted for the next Open to adopt.
var errClosing = errors.New("pipeline: shutting down")

// LineError reports which ingest line was malformed (HTTP 400).
type LineError struct {
	Index int
	Err   error
}

func (e *LineError) Error() string {
	return fmt.Sprintf("pipeline: line %d: %v", e.Index, e.Err)
}

func (e *LineError) Unwrap() error { return e.Err }

// Jobs is the slice of the solve-job machinery the scheduler needs;
// internal/server adapts jobs.Manager (validating and fingerprinting
// each request on the way in), and tests substitute fakes.
type Jobs interface {
	Submit(req *api.JobRequest) (*api.JobStatus, error)
	Status(id string) (*api.JobStatus, error)
	Result(id string) (*api.SolveResponse, *api.JobStatus, error)
	Cancel(id string) (*api.JobStatus, error)
}

// Options configures Open. Dir and Jobs are required.
type Options struct {
	// Dir is the WAL directory; the state record lives beside the
	// segments as plan.bccplan.
	Dir string
	// Window is the tumbling re-solve period (default 30s).
	Window time.Duration
	// Retention keeps fully-consumed WAL segments around this long
	// before compaction deletes them (0 = delete once consumed).
	Retention time.Duration
	// CoalesceLimit is how many windows of backlog are folded into one
	// solve before older records are skipped instead (default 4):
	// SkipAfter = CoalesceLimit × Window.
	CoalesceLimit int
	// MaxBacklogRecords sheds ingest (429) once the unconsumed backlog
	// exceeds it (default 100000).
	MaxBacklogRecords int64
	// PollInterval paces job-status polling (default 25ms).
	PollInterval time.Duration
	// MaxRetries bounds re-submissions of a failed window before it is
	// counted failed and abandoned (default 3).
	MaxRetries int
	// Backoff paces those retries (zero value = resilience defaults).
	Backoff resilience.Backoff

	// Algo/Budget/Seed shape the solve request built from each window
	// (defaults: submod, budget 10, seed 1). Open rejects an Algo the
	// server would not run without a target (algo.CheckServable).
	Algo   string
	Budget float64
	Seed   int64

	// SegmentBytes/SegmentAge/NoSync pass through to the WAL.
	SegmentBytes int64
	SegmentAge   time.Duration
	NoSync       bool

	// Jobs runs the solves. Required.
	Jobs Jobs
	// Registry receives the pipeline metric inventory (nil = none).
	Registry *obs.Registry
	// Logf receives supervision events (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 30 * time.Second
	}
	if o.CoalesceLimit <= 0 {
		o.CoalesceLimit = 4
	}
	if o.MaxBacklogRecords <= 0 {
		o.MaxBacklogRecords = 100000
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 25 * time.Millisecond
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.Algo == "" {
		o.Algo = "submod"
	}
	if o.Budget <= 0 {
		o.Budget = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// watchdogFactor sizes the per-window job deadline as a multiple of
// Window. Checkpointed jobs complete with their anytime incumbent at the
// deadline, so the watchdog bounds staleness, not success; await waits
// one more Window before it cancels a wedged job.
const watchdogFactor = 2

// inflight records a window whose job has been submitted but whose
// result has not been published: enough to adopt it after a crash —
// await the job, take its result, or rebuild the request from the WAL
// range [Start, End).
type inflight struct {
	JobID     string       `json:"job_id"`
	Start     wal.Position `json:"start"`
	End       wal.Position `json:"end"`
	Records   int          `json:"records"`
	Coalesced int          `json:"coalesced"`
	FromMS    int64        `json:"from_ms"`
	ToMS      int64        `json:"to_ms"`
	Attempts  int          `json:"attempts"`
}

// state is the single atomically-persisted record (bccplan/1) holding
// everything the pipeline must not lose across a crash. Counters are
// cumulative so the conservation invariant
//
//	RecordsTotal + RecordsSkipped + RecordsFailed == acknowledged lines
//
// holds across restarts: every acknowledged record is eventually
// accounted to exactly one bucket.
type state struct {
	Seq uint64       `json:"seq"`
	Pos wal.Position `json:"pos"`

	RecordsTotal   uint64 `json:"records_total"`
	RecordsSkipped uint64 `json:"records_skipped"`
	RecordsFailed  uint64 `json:"records_failed"`

	WindowsSolved    uint64 `json:"windows_solved"`
	WindowsCoalesced uint64 `json:"windows_coalesced"`
	WindowsSkipped   uint64 `json:"windows_skipped"`
	WindowsFailed    uint64 `json:"windows_failed"`
	WindowsEmpty     uint64 `json:"windows_empty"`

	PublishedUnixMS  int64              `json:"published_unix_ms,omitempty"`
	WindowFromMS     int64              `json:"window_from_ms,omitempty"`
	WindowToMS       int64              `json:"window_to_ms,omitempty"`
	WindowRecords    int                `json:"window_records,omitempty"`
	CoalescedWindows int                `json:"coalesced_windows,omitempty"`
	Plan             *api.SolveResponse `json:"plan,omitempty"`

	Inflight *inflight `json:"inflight,omitempty"`
}

// windowMeta describes one window on its way through solve → publish.
type windowMeta struct {
	start, end   wal.Position
	records      int
	coalesced    int
	fromMS, toMS int64
	attempts     int
	adoptedJobID string
}

// Stats is the pipeline's /v1/statz section.
type Stats struct {
	Seq              uint64  `json:"seq"`
	PlanAgeSeconds   float64 `json:"plan_age_seconds"` // -1 before first publish
	BacklogRecords   int64   `json:"backlog_records"`
	Inflight         bool    `json:"inflight"`
	WindowsSolved    uint64  `json:"windows_solved"`
	WindowsCoalesced uint64  `json:"windows_coalesced"`
	WindowsSkipped   uint64  `json:"windows_skipped"`
	WindowsFailed    uint64  `json:"windows_failed"`
	WindowsEmpty     uint64  `json:"windows_empty"`
	RecordsTotal     uint64  `json:"records_total"`
	RecordsSkipped   uint64  `json:"records_skipped"`
	RecordsFailed    uint64  `json:"records_failed"`
	Ingested         uint64  `json:"ingested"`
	IngestRejected   uint64  `json:"ingest_rejected"`
	SolveRetries     uint64  `json:"solve_retries"`
	// WarmChained counts window solves seeded from the previous window's
	// published plan (incremental re-solve chaining, DESIGN.md §17).
	WarmChained uint64    `json:"warm_chained"`
	WAL         wal.Stats `json:"wal"`
}

// Pipeline is the running scheduler. Open it, feed it via Ingest, read
// via CurrentPlan/Stats, Close it to stop (the in-flight window, if
// any, is adopted by the next Open).
type Pipeline struct {
	opts      Options
	wal       *wal.WAL
	statePath string

	mu sync.Mutex
	st state

	backlog     atomic.Int64
	ingested    atomic.Uint64
	rejected    atomic.Uint64
	retries     atomic.Uint64
	warmChained atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// Open recovers the pipeline from dir (WAL + state record) and starts
// the scheduler goroutine.
func Open(opts Options) (*Pipeline, error) {
	opts = opts.withDefaults()
	if opts.Jobs == nil {
		return nil, errors.New("pipeline: Options.Jobs is required")
	}
	// Windows carry no target. With an algo the server would reject,
	// every window would be submitted, refused and abandoned after its
	// retries, so refuse the algo here instead.
	if err := algo.CheckServable(opts.Algo, 0); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	w, err := wal.Open(wal.Options{
		Dir:          opts.Dir,
		SegmentBytes: opts.SegmentBytes,
		SegmentAge:   opts.SegmentAge,
		NoSync:       opts.NoSync,
	})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		opts:      opts,
		wal:       w,
		statePath: filepath.Join(opts.Dir, stateFile),
		done:      make(chan struct{}),
	}
	p.st = p.loadState()
	// The WAL cursor is advisory redundancy: if the state record was
	// lost but the cursor survived (or vice versa), resume from the
	// furthest committed position rather than re-solving from zero.
	if cur, ok := w.LoadCursor(); ok && p.st.Pos.Less(cur) {
		p.st.Pos = cur
	}
	pending, err := w.CountFrom(p.st.Pos)
	if err != nil {
		w.Close()
		return nil, err
	}
	// An in-flight window's records are already counted: Pos only
	// advances when the window publishes, so CountFrom still sees them.
	p.backlog.Store(int64(pending))
	p.initMetrics(opts.Registry)

	p.wg.Add(1)
	go p.loop()
	return p, nil
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// loadState reads the persisted state record; a missing or corrupt
// record starts from zero (the WAL cursor and at-least-once delivery
// make that safe — never fatal, matching the WAL's repair stance).
func (p *Pipeline) loadState() state {
	var st state
	data, err := os.ReadFile(p.statePath)
	if err != nil {
		return st
	}
	body, err := durable.DecodeRecord(StateFormat, p.statePath, data)
	if err != nil {
		p.logf("pipeline: state record unreadable (%v); restarting from WAL cursor", err)
		return state{}
	}
	if err := json.Unmarshal(body, &st); err != nil {
		p.logf("pipeline: state record undecodable (%v); restarting from WAL cursor", err)
		return state{}
	}
	return st
}

// persistLocked atomically rewrites the state record and installs st as
// current. A persist failure keeps the in-memory state (the scheduler
// must make progress) but is loud: after a crash the lost transition is
// re-done, which at-least-once semantics absorb.
func (p *Pipeline) persistLocked(st state) {
	body, err := json.Marshal(&st)
	if err == nil {
		err = durable.WriteFileAtomic(p.statePath, durable.EncodeRecord(StateFormat, body))
	}
	if err != nil {
		p.logf("pipeline: persisting state: %v", err)
	}
	p.st = st
}

// Ingest validates and durably appends query-log lines; a line is only
// acknowledged after the WAL fsync. Blank and comment lines are
// accepted (a log replayer shouldn't have to strip them) but not
// appended. Returns how many lines were appended.
func (p *Pipeline) Ingest(lines []string) (int, error) {
	bodies := make([][]byte, 0, len(lines))
	for i, line := range lines {
		if err := querylog.CheckTimedLine(line); err != nil {
			p.rejected.Add(1)
			return 0, &LineError{Index: i, Err: err}
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		bodies = append(bodies, []byte(trimmed))
	}
	if len(bodies) == 0 {
		return 0, nil
	}
	if p.backlog.Load()+int64(len(bodies)) > p.opts.MaxBacklogRecords {
		p.rejected.Add(uint64(len(bodies)))
		return 0, ErrBacklog
	}
	if _, err := p.wal.Append(bodies...); err != nil {
		return 0, err
	}
	p.backlog.Add(int64(len(bodies)))
	p.ingested.Add(uint64(len(bodies)))
	return len(bodies), nil
}

// Window reports the configured tumbling window (the HTTP layer's
// Retry-After advice for a shed ingest).
func (p *Pipeline) Window() time.Duration { return p.opts.Window }

// CurrentPlan returns the last published plan with staleness metadata,
// or ErrNoPlan before the first publish.
func (p *Pipeline) CurrentPlan() (*api.CurrentPlanResponse, error) {
	p.mu.Lock()
	st := p.st
	backlog := p.backlog.Load()
	p.mu.Unlock()
	if st.Plan == nil {
		return nil, ErrNoPlan
	}
	return &api.CurrentPlanResponse{
		Seq:              st.Seq,
		Plan:             st.Plan,
		WindowFromUnixMS: st.WindowFromMS,
		WindowToUnixMS:   st.WindowToMS,
		WindowRecords:    st.WindowRecords,
		CoalescedWindows: st.CoalescedWindows,
		PublishedUnixMS:  st.PublishedUnixMS,
		AgeSeconds:       float64(time.Now().UnixMilli()-st.PublishedUnixMS) / 1000,
		BacklogRecords:   backlog,
	}, nil
}

// Stats snapshots the pipeline for /v1/statz.
func (p *Pipeline) Stats() *Stats {
	p.mu.Lock()
	st := p.st
	backlog := p.backlog.Load()
	p.mu.Unlock()
	s := &Stats{
		Seq:              st.Seq,
		PlanAgeSeconds:   -1,
		BacklogRecords:   backlog,
		Inflight:         st.Inflight != nil,
		WindowsSolved:    st.WindowsSolved,
		WindowsCoalesced: st.WindowsCoalesced,
		WindowsSkipped:   st.WindowsSkipped,
		WindowsFailed:    st.WindowsFailed,
		WindowsEmpty:     st.WindowsEmpty,
		RecordsTotal:     st.RecordsTotal,
		RecordsSkipped:   st.RecordsSkipped,
		RecordsFailed:    st.RecordsFailed,
		Ingested:         p.ingested.Load(),
		IngestRejected:   p.rejected.Load(),
		SolveRetries:     p.retries.Load(),
		WarmChained:      p.warmChained.Load(),
		WAL:              p.wal.Stats(),
	}
	if st.PublishedUnixMS > 0 {
		s.PlanAgeSeconds = float64(time.Now().UnixMilli()-st.PublishedUnixMS) / 1000
	}
	return s
}

func (p *Pipeline) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	counter := func(name, help string, fn func(st state) uint64) {
		reg.CounterFunc(name, help, nil, func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(fn(p.st))
		})
	}
	counter("bcc_pipeline_windows_solved_total", "Windows solved and published.",
		func(st state) uint64 { return st.WindowsSolved })
	counter("bcc_pipeline_windows_coalesced_total", "Extra backlog windows folded into a single solve.",
		func(st state) uint64 { return st.WindowsCoalesced })
	counter("bcc_pipeline_windows_skipped_total", "Stale windows advanced past without solving.",
		func(st state) uint64 { return st.WindowsSkipped })
	counter("bcc_pipeline_windows_failed_total", "Windows abandoned after exhausting solve retries.",
		func(st state) uint64 { return st.WindowsFailed })
	counter("bcc_pipeline_windows_empty_total", "Windows whose records produced no solvable workload.",
		func(st state) uint64 { return st.WindowsEmpty })
	counter("bcc_pipeline_records_total", "Records consumed into solved or empty windows.",
		func(st state) uint64 { return st.RecordsTotal })
	counter("bcc_pipeline_records_skipped_total", "Records skipped as stale by the degradation ladder.",
		func(st state) uint64 { return st.RecordsSkipped })
	counter("bcc_pipeline_records_failed_total", "Records in windows abandoned after retries.",
		func(st state) uint64 { return st.RecordsFailed })
	reg.CounterFunc("bcc_pipeline_ingested_total", "Lines durably acknowledged into the WAL.", nil,
		func() float64 { return float64(p.ingested.Load()) })
	reg.CounterFunc("bcc_pipeline_ingest_rejected_total", "Ingest lines rejected (malformed or backlog shed).", nil,
		func() float64 { return float64(p.rejected.Load()) })
	reg.CounterFunc("bcc_pipeline_solve_retries_total", "Window solve re-submissions after failure.", nil,
		func() float64 { return float64(p.retries.Load()) })
	reg.CounterFunc("bcc_incr_warm_chained_total", "Window solves seeded from the previous published plan.", nil,
		func() float64 { return float64(p.warmChained.Load()) })
	reg.CounterFunc("bcc_wal_corrupt_truncated_total", "WAL tails truncated at open (corrupt or torn).", nil,
		func() float64 { return float64(p.wal.Truncations()) })
	reg.GaugeFunc("bcc_pipeline_plan_age_seconds", "Seconds since the last plan publish (-1 before the first).", nil,
		func() float64 {
			p.mu.Lock()
			ms := p.st.PublishedUnixMS
			p.mu.Unlock()
			if ms == 0 {
				return -1
			}
			return float64(time.Now().UnixMilli()-ms) / 1000
		})
	reg.GaugeFunc("bcc_pipeline_backlog_records", "Acknowledged records not yet consumed by a published window.", nil,
		func() float64 { return float64(p.backlog.Load()) })
	reg.GaugeFunc("bcc_pipeline_inflight", "Whether a window solve is in flight (0/1).", nil,
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.st.Inflight != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("bcc_wal_segments", "Live WAL segment files.", nil,
		func() float64 { return float64(p.wal.Stats().Segments) })
}

// Close stops the scheduler. An in-flight job keeps running inside the
// jobs manager (which has its own drain semantics); its window stays
// persisted for the next Open to adopt.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	p.mu.Unlock()
	p.wg.Wait()
	return p.wal.Close()
}

// loop drives the scheduler: adopt any crashed-over in-flight window
// immediately, then tick every Window.
func (p *Pipeline) loop() {
	defer p.wg.Done()
	if !p.tick() {
		return
	}
	t := time.NewTicker(p.opts.Window)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			if !p.tick() {
				return
			}
		}
	}
}

// tick is one scheduler round. Returns false when shutting down.
func (p *Pipeline) tick() bool {
	if inf := p.inflightSnapshot(); inf != nil {
		if !p.adoptInflight(inf) {
			return false
		}
	}
	p.mu.Lock()
	pos := p.st.Pos
	p.mu.Unlock()

	recs, end, err := p.wal.ReadFrom(pos, 0)
	if err != nil {
		p.logf("pipeline: reading WAL from %v: %v", pos, err)
		return true
	}
	if len(recs) == 0 {
		p.compact(end)
		return true
	}
	now := time.Now().UnixMilli()
	winMS := p.opts.Window.Milliseconds()

	// Rung 3: skip the stale prefix. Records that waited longer than
	// CoalesceLimit windows would only yield a plan staler than the one
	// already serving; advancing past them (counted) is strictly better
	// than queueing further behind.
	skipCut := now - int64(p.opts.CoalesceLimit)*winMS
	stale := 0
	for stale < len(recs) && recs[stale].AppendUnixMS < skipCut {
		stale++
	}
	if stale > 0 {
		span := recs[stale-1].AppendUnixMS - recs[0].AppendUnixMS
		windows := int(math.Ceil(float64(span)/float64(winMS))) + 1
		p.mu.Lock()
		st := p.st
		st.Pos = recs[stale-1].End
		st.RecordsSkipped += uint64(stale)
		st.WindowsSkipped += uint64(windows)
		p.persistLocked(st)
		// Decrement while holding mu: a Stats reader must never see the
		// counters advanced with the backlog not yet drained.
		p.backlog.Add(-int64(stale))
		p.mu.Unlock()
		p.logf("pipeline: behind by >%d windows; skipped %d stale records (%d windows)",
			p.opts.CoalesceLimit, stale, windows)
		recs = recs[stale:]
		if len(recs) == 0 {
			return true
		}
	}

	// Rung 2: whatever survives the skip is solved as one window; a
	// backlog spanning several windows coalesces (counted).
	p.mu.Lock()
	start := p.st.Pos // may have advanced past pos if a stale prefix was skipped
	p.mu.Unlock()
	meta := windowMeta{
		start:   start,
		end:     recs[len(recs)-1].End,
		records: len(recs),
		fromMS:  recs[0].AppendUnixMS,
		toMS:    recs[len(recs)-1].AppendUnixMS,
	}
	if span := meta.toMS - meta.fromMS; span > winMS {
		meta.coalesced = int(span / winMS)
	}
	return p.solveWindow(recs, meta)
}

func (p *Pipeline) inflightSnapshot() *inflight {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Inflight == nil {
		return nil
	}
	inf := *p.st.Inflight
	return &inf
}

// adoptInflight resumes a window whose job was submitted before a crash
// or restart: take its result if it finished, await it if it is still
// running, or rebuild and resubmit it if it died. Never re-solves a
// published window (publishing clears Inflight in the same atomic write
// that advances Pos) and never drops one. Returns false when shutting
// down.
func (p *Pipeline) adoptInflight(inf *inflight) bool {
	meta := windowMeta{
		start:        inf.Start,
		end:          inf.End,
		records:      inf.Records,
		coalesced:    inf.Coalesced,
		fromMS:       inf.FromMS,
		toMS:         inf.ToMS,
		attempts:     inf.Attempts,
		adoptedJobID: inf.JobID,
	}
	st, err := p.opts.Jobs.Status(inf.JobID)
	if err == nil && st != nil {
		p.logf("pipeline: adopting in-flight window (job %s, state %s)", inf.JobID, st.State)
		resp, werr := p.await(inf.JobID)
		switch {
		case errors.Is(werr, errClosing):
			return false
		case werr == nil:
			p.publish(resp, meta)
			return true
		default:
			p.logf("pipeline: adopted job %s: %v", inf.JobID, werr)
		}
	} else {
		p.logf("pipeline: in-flight job %s unknown after restart; re-solving its window", inf.JobID)
	}
	// The job is gone or failed: rebuild the request from the recorded
	// WAL byte range and run the window again.
	recs, _, err := p.wal.ReadFrom(inf.Start, 0)
	if err != nil {
		p.logf("pipeline: re-reading in-flight window: %v", err)
		return true // leave Inflight for the next tick; WAL may recover
	}
	window := recs[:0]
	for _, r := range recs {
		if !inf.End.Less(r.End) {
			window = append(window, r)
		}
	}
	if len(window) == 0 {
		// The range compacted away underneath a failed job — only
		// possible if it was already consumed, so drop the marker.
		p.clearInflight()
		return true
	}
	meta.adoptedJobID = ""
	return p.solveWindow(window, meta)
}

func (p *Pipeline) clearInflight() {
	p.mu.Lock()
	st := p.st
	st.Inflight = nil
	p.persistLocked(st)
	p.mu.Unlock()
}

// buildRequest turns a window of WAL records into a solve request via
// querylog accumulation. The window is arrival-ordered and already
// bounded, so ParseTimed runs unwindowed — event-time filtering
// happened when the producer chose what to ingest.
func (p *Pipeline) buildRequest(recs []wal.Record) (*api.JobRequest, error) {
	var sb strings.Builder
	for _, r := range recs {
		sb.Write(r.Body)
		sb.WriteByte('\n')
	}
	b, _, err := querylog.ParseTimed(strings.NewReader(sb.String()), querylog.TimedOptions{})
	if err != nil {
		return nil, err
	}
	// The unit-cost model: a classifier costs one per property.
	b.SetDefaultCost(func(s propset.Set) float64 { return float64(s.Len()) })
	in, err := b.Instance(p.opts.Budget)
	if err != nil {
		return nil, err
	}
	watchdog := watchdogFactor * p.opts.Window
	return &api.JobRequest{
		SolveRequest: api.SolveRequest{
			Instance:    dataset.ToFormat(in),
			Algo:        p.opts.Algo,
			Seed:        p.opts.Seed,
			IncludePlan: true,
			// Warm chaining: consecutive windows of one workload overlap
			// heavily, so the last published plan seeds this window's
			// solve. The server repairs it against the new instance (stale
			// queries drop out) and the solver registry holds the result
			// to the IG1 floor, so a divergent window answers no worse
			// than IG1.
			WarmPlan: p.lastPlanSets(),
		},
		JobDeadlineMS: watchdog.Milliseconds(),
	}, nil
}

// lastPlanSets extracts the last published plan as warm-start property
// sets, nil before the first publish (or when the plan carried no
// classifiers).
func (p *Pipeline) lastPlanSets() [][]string {
	p.mu.Lock()
	plan := p.st.Plan
	p.mu.Unlock()
	if plan == nil || len(plan.Classifiers) == 0 {
		return nil
	}
	sets := make([][]string, len(plan.Classifiers))
	for i, c := range plan.Classifiers {
		sets[i] = c.Props
	}
	p.warmChained.Add(1)
	return sets
}

// solveWindow runs one window to publication (or to counted
// abandonment), retrying failures with backoff. Returns false when
// shutting down.
func (p *Pipeline) solveWindow(recs []wal.Record, meta windowMeta) bool {
	req, err := p.buildRequest(recs)
	if err != nil {
		// Lines are validated at ingest, so an unparseable or unbuildable
		// window is deterministic — retrying cannot help. Count it and
		// move on; the last-good plan keeps serving.
		p.logf("pipeline: window of %d records unbuildable: %v", meta.records, err)
		p.consumeWithoutPlan(meta, true)
		return true
	}
	if len(req.Instance.Queries) == 0 {
		p.consumeWithoutPlan(meta, false)
		return true
	}
	for {
		if meta.adoptedJobID == "" {
			meta.attempts++
			if meta.attempts > 1 {
				p.retries.Add(1)
			}
			st, err := p.opts.Jobs.Submit(req)
			if err != nil {
				if !p.retryOrFail(&meta, fmt.Errorf("submit: %w", err)) {
					return true
				}
				if !p.sleep(p.opts.Backoff.Delay(meta.attempts - 1)) {
					return false
				}
				continue
			}
			p.setInflight(meta, st.ID)
			meta.adoptedJobID = st.ID
		}
		resp, err := p.await(meta.adoptedJobID)
		if errors.Is(err, errClosing) {
			return false
		}
		if err == nil {
			p.publish(resp, meta)
			return true
		}
		meta.adoptedJobID = ""
		if !p.retryOrFail(&meta, err) {
			return true
		}
		if !p.sleep(p.opts.Backoff.Delay(meta.attempts - 1)) {
			return false
		}
	}
}

// retryOrFail decides whether a failed attempt retries. When retries
// are exhausted the window is abandoned loudly: counted as failed,
// records accounted, position advanced, last-good plan untouched.
func (p *Pipeline) retryOrFail(meta *windowMeta, cause error) bool {
	if meta.attempts <= p.opts.MaxRetries {
		p.logf("pipeline: window attempt %d/%d failed: %v", meta.attempts, p.opts.MaxRetries, cause)
		return true
	}
	p.logf("pipeline: window of %d records abandoned after %d attempts: %v",
		meta.records, meta.attempts, cause)
	p.mu.Lock()
	st := p.st
	st.Pos = meta.end
	st.RecordsFailed += uint64(meta.records)
	st.WindowsFailed += uint64(1 + meta.coalesced)
	st.Inflight = nil
	p.persistLocked(st)
	p.backlog.Add(-int64(meta.records))
	p.mu.Unlock()
	return false
}

// consumeWithoutPlan advances past a window that cannot produce a plan
// (empty workload, or deterministic build failure).
func (p *Pipeline) consumeWithoutPlan(meta windowMeta, failed bool) {
	p.mu.Lock()
	st := p.st
	st.Pos = meta.end
	if failed {
		st.RecordsFailed += uint64(meta.records)
		st.WindowsFailed += uint64(1 + meta.coalesced)
	} else {
		st.RecordsTotal += uint64(meta.records)
		st.WindowsEmpty++
	}
	st.Inflight = nil
	p.persistLocked(st)
	p.backlog.Add(-int64(meta.records))
	p.mu.Unlock()
}

// setInflight persists the submitted window so a crash between here and
// publication is adoptable. Ordering matters: the job store has already
// persisted the job (Submit returned), so the worst crash point leaves
// an orphan job the manager resumes and nobody reads — harmless —
// rather than a consumed-but-never-solved window.
func (p *Pipeline) setInflight(meta windowMeta, jobID string) {
	p.mu.Lock()
	st := p.st
	st.Inflight = &inflight{
		JobID:     jobID,
		Start:     meta.start,
		End:       meta.end,
		Records:   meta.records,
		Coalesced: meta.coalesced,
		FromMS:    meta.fromMS,
		ToMS:      meta.toMS,
		Attempts:  meta.attempts,
	}
	p.persistLocked(st)
	p.mu.Unlock()
}

// await polls a job to its terminal state under the watchdog deadline.
// Jobs complete with their anytime incumbent when their own deadline
// expires, so the watchdog (deadline + grace) only fires for a wedged
// job — which is cancelled and reported as a failure.
func (p *Pipeline) await(jobID string) (*api.SolveResponse, error) {
	watchdog := watchdogFactor*p.opts.Window + p.opts.Window
	deadline := time.Now().Add(watchdog)
	for {
		st, err := p.opts.Jobs.Status(jobID)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", jobID, err)
		}
		if api.JobTerminal(st.State) {
			if st.State == api.JobCompleted {
				resp, _, err := p.opts.Jobs.Result(jobID)
				if err != nil {
					return nil, fmt.Errorf("job %s result: %w", jobID, err)
				}
				return resp, nil
			}
			return nil, fmt.Errorf("job %s %s: %s", jobID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			_, _ = p.opts.Jobs.Cancel(jobID)
			return nil, fmt.Errorf("job %s overran the %v watchdog; cancelled", jobID, watchdog)
		}
		select {
		case <-p.done:
			return nil, errClosing
		case <-time.After(p.opts.PollInterval):
		}
	}
}

// publish atomically installs a new last-good plan: one state write
// moves Pos past the window, bumps the counters, stores the plan, and
// clears Inflight — so a crash either sees the old plan with the window
// in flight, or the new plan with it consumed, never half of each.
func (p *Pipeline) publish(resp *api.SolveResponse, meta windowMeta) {
	p.mu.Lock()
	st := p.st
	st.Seq++
	st.Pos = meta.end
	st.RecordsTotal += uint64(meta.records)
	st.WindowsSolved++
	st.WindowsCoalesced += uint64(meta.coalesced)
	st.Plan = resp
	st.PublishedUnixMS = time.Now().UnixMilli()
	st.WindowFromMS = meta.fromMS
	st.WindowToMS = meta.toMS
	st.WindowRecords = meta.records
	st.CoalescedWindows = meta.coalesced
	st.Inflight = nil
	p.persistLocked(st)
	pos := st.Pos
	p.backlog.Add(-int64(meta.records))
	p.mu.Unlock()
	if err := p.wal.SaveCursor(pos); err != nil {
		p.logf("pipeline: saving WAL cursor: %v", err)
	}
	p.compact(pos)
	p.logf("pipeline: published plan seq=%d (%d records, %d coalesced, utility %.3f)",
		st.Seq, meta.records, meta.coalesced, resp.Utility)
}

func (p *Pipeline) compact(upto wal.Position) {
	if _, err := p.wal.Compact(upto, p.opts.Retention); err != nil {
		p.logf("pipeline: compacting WAL: %v", err)
	}
}

// sleep waits d unless the pipeline is closing.
func (p *Pipeline) sleep(d time.Duration) bool {
	select {
	case <-p.done:
		return false
	case <-time.After(d):
		return true
	}
}
