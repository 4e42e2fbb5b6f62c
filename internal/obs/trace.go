package obs

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Stage names one instrumented phase of the solver pipeline (§5 of the
// paper plus the engineering additions around it). The enum is closed
// on purpose: a fixed array of cells is what keeps Recorder alloc-free.
type Stage uint8

const (
	// StagePrune is step 1 of Algorithm 1 (R1 + leverage-score R2).
	StagePrune Stage = iota
	// StageKnapsack is one BCC(1) knapsack subproblem solve.
	StageKnapsack
	// StageQK is one BCC(2) Quadratic Knapsack solve (all restarts).
	StageQK
	// StageQKRestart is one QK random-bipartition restart batch (runs
	// on the restart worker goroutines).
	StageQKRestart
	// StageMC3 is one MC3 re-cover local-search call.
	StageMC3
	// StageResidual is one residual round of A^BCC's improvement loop
	// (lines 4–6 of Algorithm 1).
	StageResidual
	// StageGreedyFloor is the IG1-seeded second pipeline A^BCC compares
	// against before returning.
	StageGreedyFloor
	// StageGMC3Residual is one residual A^BCC run inside A^GMC3's
	// budget-guess loop.
	StageGMC3Residual
	// StageECC is the densest-subgraph candidate construction of A^ECC.
	StageECC
	// StageSubmodPass is one full lazy-greedy pass of the budgeted
	// submodular solver (cost-scaled or unscaled).
	StageSubmodPass

	numStages
)

var stageNames = [numStages]string{
	StagePrune:        "prune",
	StageKnapsack:     "knapsack",
	StageQK:           "qk",
	StageQKRestart:    "qk_restart",
	StageMC3:          "mc3",
	StageResidual:     "residual_round",
	StageGreedyFloor:  "greedy_floor",
	StageGMC3Residual: "gmc3_residual",
	StageECC:          "ecc_densest",
	StageSubmodPass:   "submod_pass",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// stageCell aggregates one stage's spans. All fields are atomics so the
// QK restart workers can record concurrently with the main goroutine.
type stageCell struct {
	count atomic.Int64
	nanos atomic.Int64
	max   atomic.Int64
	size  atomic.Int64
}

// Recorder aggregates per-stage span statistics for one solve. It is
// carried in the context (WithRecorder) and extracted by the SolveCtx
// façades; the solver stack then brackets each stage with Start/End.
//
// A nil *Recorder is valid and disabled: Start returns the zero Time
// without reading the clock and End returns immediately — one branch
// per call, no allocation (mirroring the nil-*Guard convention), so the
// instrumentation stays in the hot paths unconditionally.
type Recorder struct {
	cells [numStages]stageCell
}

// NewRecorder returns an enabled recorder with all stages at zero.
func NewRecorder() *Recorder { return &Recorder{} }

// Start begins a stage span: it returns the wall-clock start to be
// passed to End. On a nil recorder it is a single branch.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// End completes a stage span started at start, folding its wall time
// and size (items, queries, rounds — the stage's natural unit) into the
// stage's aggregate. Safe for concurrent use; on a nil recorder it is a
// single branch.
func (r *Recorder) End(s Stage, start time.Time, size int) {
	if r == nil {
		return
	}
	d := int64(time.Since(start))
	c := &r.cells[s]
	c.count.Add(1)
	c.nanos.Add(d)
	c.size.Add(int64(size))
	for {
		max := c.max.Load()
		if d <= max || c.max.CompareAndSwap(max, d) {
			return
		}
	}
}

// StageStat is one stage's aggregated spans.
type StageStat struct {
	// Stage is the stage name as printed (see Stage.String).
	Stage string `json:"stage"`
	// Calls is the number of completed spans.
	Calls int64 `json:"calls"`
	// Total is the summed wall time across spans. Spans on concurrent
	// goroutines overlap: qk_restart's, and A^BCC's greedy_floor, whose
	// pipeline (with its own mc3, residual_round, knapsack and qk spans)
	// runs beside the main pipeline. So totals can exceed the solve's
	// wall clock — they measure work, not elapsed time.
	Total time.Duration `json:"total_ns"`
	// Max is the longest single span.
	Max time.Duration `json:"max_ns"`
	// Size is the summed span sizes (stage-specific unit).
	Size int64 `json:"size"`
}

// Snapshot returns the stages with at least one span, in pipeline
// order. Safe to call while spans are still being recorded.
func (r *Recorder) Snapshot() []StageStat {
	if r == nil {
		return nil
	}
	var out []StageStat
	for s := Stage(0); s < numStages; s++ {
		c := &r.cells[s]
		n := c.count.Load()
		if n == 0 {
			continue
		}
		out = append(out, StageStat{
			Stage: s.String(),
			Calls: n,
			Total: time.Duration(c.nanos.Load()),
			Max:   time.Duration(c.max.Load()),
			Size:  c.size.Load(),
		})
	}
	return out
}

// WriteTable renders the snapshot as the aligned breakdown bccsolve
// -trace prints: one row per stage with calls, total/avg/max wall time,
// size, and each stage's share of the summed stage time.
func (r *Recorder) WriteTable(w io.Writer) error {
	stats := r.Snapshot()
	if len(stats) == 0 {
		_, err := fmt.Fprintln(w, "trace: no stages recorded")
		return err
	}
	var grand time.Duration
	for _, st := range stats {
		grand += st.Total
	}
	if _, err := fmt.Fprintf(w, "%-14s %7s %12s %12s %12s %10s %6s\n",
		"stage", "calls", "total", "avg", "max", "size", "share"); err != nil {
		return err
	}
	for _, st := range stats {
		share := 0.0
		if grand > 0 {
			share = float64(st.Total) / float64(grand) * 100
		}
		avg := st.Total / time.Duration(st.Calls)
		if _, err := fmt.Fprintf(w, "%-14s %7d %12s %12s %12s %10d %5.1f%%\n",
			st.Stage, st.Calls,
			st.Total.Round(time.Microsecond),
			avg.Round(time.Microsecond),
			st.Max.Round(time.Microsecond),
			st.Size, share); err != nil {
			return err
		}
	}
	return nil
}

// recorderKey carries the Recorder in a context.
type recorderKey struct{}

// WithRecorder returns a context carrying rec; the SolveCtx façades
// pick it up via FromContext. A nil rec is allowed and yields a context
// that traces nothing.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// FromContext extracts the Recorder from ctx, or nil (disabled) when
// none was attached. Called once per solve entry, not in hot loops.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
