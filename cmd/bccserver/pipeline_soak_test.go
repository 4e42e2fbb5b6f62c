// Kill-and-resume acceptance soak for the continuous workload pipeline:
// builds the real bccserver binary, starts it with a WAL directory,
// ingests timestamped query-log lines, lets one window publish, then
// SIGKILLs the process with a window's worth of acknowledged records
// still unconsumed (ideally mid-solve), restarts it on the same
// -wal-dir and asserts conservation: every acknowledged record is
// eventually accounted for exactly once (solved, skipped or failed —
// never lost, never double-counted), the plan is re-published with
// bcc_pipeline_windows_solved_total advancing, and the staleness gauge
// bcc_pipeline_plan_age_seconds is exposed.
//
// Like the jobs soak it SIGKILLs subprocesses and is gated behind a
// flag:
//
//	go test -race -run TestPipelineKillResume -pipeline.soak ./cmd/bccserver
//
// (or `make pipeline-smoke`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
)

var pipelineSoak = flag.Bool("pipeline.soak", false,
	"run the pipeline kill-and-resume soak (builds and SIGKILLs real bccserver processes)")

func TestPipelineKillResume(t *testing.T) {
	if !*pipelineSoak {
		t.Skip("pipeline kill-and-resume soak disabled; run with -pipeline.soak")
	}
	if runtime.GOOS == "windows" {
		t.Skip("soak relies on SIGKILL/SIGTERM process control")
	}

	bin := buildServerBinary(t)
	walDir := t.TempDir()
	var acked uint64

	// First life: publish one plan from a small window, then acknowledge
	// a big batch (hundreds of distinct queries, so the abcc window solve
	// spans checkpoint slices) and die hard while it is unconsumed.
	srv1 := startPipelineProc(t, bin, walDir)
	acked += ingestSoakLines(t, srv1.base, 20, 0)
	waitPipelineStatz(t, srv1.base, "first window published", time.Minute,
		func(ps *pipelineStatz) bool { return ps.WindowsSolved >= 1 })
	planBefore := currentPlanAt(t, srv1.base)
	if planBefore.Plan == nil || planBefore.Plan.Utility <= 0 {
		t.Fatalf("first published plan = %+v, want positive utility", planBefore)
	}

	acked += ingestSoakLines(t, srv1.base, 600, 1)
	// Best effort: catch the scheduler mid-solve so restart exercises the
	// adopt-inflight path. Conservation must hold either way, so a solve
	// that finishes faster than our polling only weakens the scenario,
	// not the assertions.
	var caught bool
	waitPipelineStatz(t, srv1.base, "big window in flight or consumed", time.Minute,
		func(ps *pipelineStatz) bool { caught = ps.Inflight; return ps.Inflight || ps.sum() == acked })
	t.Logf("SIGKILL with the big window in flight: %v", caught)
	srv1.sigkill(t)

	// Second life: same WAL dir. Every acknowledged record must be
	// accounted for exactly once and a plan must be served again.
	srv2 := startPipelineProc(t, bin, walDir)
	defer srv2.sigterm(t)

	waitPipelineStatz(t, srv2.base, "conservation after restart", 3*time.Minute,
		func(ps *pipelineStatz) bool { return ps.sum() == acked && !ps.Inflight })
	ps := pipelineStatzAt(t, srv2.base)
	if ps.sum() != acked || ps.RecordsTotal > acked {
		t.Fatalf("conservation broken: total=%d skipped=%d failed=%d, acked=%d",
			ps.RecordsTotal, ps.RecordsSkipped, ps.RecordsFailed, acked)
	}
	if ps.BacklogRecords != 0 {
		t.Fatalf("backlog = %d after all windows consumed, want 0", ps.BacklogRecords)
	}
	if ps.WindowsSolved < 1 {
		t.Fatalf("windows_solved = %d after restart, want >= 1", ps.WindowsSolved)
	}
	solvedAfterRestart := ps.WindowsSolved

	plan := currentPlanAt(t, srv2.base)
	if plan.Plan == nil || plan.Plan.Utility <= 0 {
		t.Fatalf("plan after restart = %+v, want positive utility", plan)
	}
	if age, ok := scrapeGauge(t, srv2.base, "bcc_pipeline_plan_age_seconds"); !ok || age < 0 {
		t.Fatalf("bcc_pipeline_plan_age_seconds = %v (present=%v), want exposed and >= 0", age, ok)
	}
	if v := scrapeCounter(t, srv2.base, "bcc_pipeline_windows_solved_total"); v < 1 {
		t.Fatalf("bcc_pipeline_windows_solved_total = %v, want >= 1", v)
	}

	// Third batch: the resumed scheduler keeps solving, the seq advances.
	acked += ingestSoakLines(t, srv2.base, 30, 2)
	waitPipelineStatz(t, srv2.base, "post-restart window published", time.Minute,
		func(ps *pipelineStatz) bool { return ps.sum() == acked && ps.WindowsSolved > solvedAfterRestart })
	ps = pipelineStatzAt(t, srv2.base)
	t.Logf("soak done: acked=%d total=%d skipped=%d failed=%d windows_solved=%d",
		acked, ps.RecordsTotal, ps.RecordsSkipped, ps.RecordsFailed, ps.WindowsSolved)
}

// startPipelineProc launches bccserver with the pipeline on walDir (the
// job store lands in <walDir>/jobs via the -wal-dir default), a 1s
// window and tight checkpoints, and waits for /v1/healthz.
func startPipelineProc(t *testing.T, bin, walDir string) *serverProc {
	t.Helper()
	addr := freeLoopbackAddr(t)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-wal-dir", walDir,
		"-window", "1s",
		"-pipeline-algo", "abcc",
		"-pipeline-budget", "50",
		"-job-checkpoint", "200ms",
		"-job-workers", "1",
		"-workers", "1",
		"-cache-size", "-1",
		"-drain", "5s",
	)
	logs := &bytes.Buffer{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting bccserver: %v", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logs: logs}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("bccserver[%s] logs:\n%s", addr, logs.String())
		}
	})
	waitHealthy(t, p.base, 30*time.Second)
	return p
}

// ingestSoakLines acknowledges n distinct-pair query-log lines stamped
// now and returns how many the server accepted (fatal unless all n).
// Distinct pairs keep the assembled window instance at n queries, so a
// 600-line batch forces a multi-slice abcc solve.
func ingestSoakLines(t *testing.T, base string, n, generation int) uint64 {
	t.Helper()
	now := time.Now().Unix()
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		a, b := i%40, 40+i/40
		lines = append(lines, fmt.Sprintf("%d\tgen%d-t%02d gen%d-t%02d\t%d", now, generation, a, generation, b, 1+i%9))
	}
	body, err := json.Marshal(api.IngestRequest{Lines: lines})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest answered %d: %s", resp.StatusCode, data)
	}
	var ack api.IngestResponse
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatalf("decoding ingest response %s: %v", data, err)
	}
	if ack.Accepted != n {
		t.Fatalf("accepted %d of %d lines", ack.Accepted, n)
	}
	return uint64(n)
}

// pipelineStatz is the subset of the /v1/statz pipeline section the
// soak asserts on.
type pipelineStatz struct {
	Inflight       bool   `json:"inflight"`
	WindowsSolved  uint64 `json:"windows_solved"`
	RecordsTotal   uint64 `json:"records_total"`
	RecordsSkipped uint64 `json:"records_skipped"`
	RecordsFailed  uint64 `json:"records_failed"`
	BacklogRecords int64  `json:"backlog_records"`
}

// sum is the conservation left-hand side: every acknowledged record
// must land in exactly one of these buckets.
func (ps *pipelineStatz) sum() uint64 {
	return ps.RecordsTotal + ps.RecordsSkipped + ps.RecordsFailed
}

func pipelineStatzAt(t *testing.T, base string) *pipelineStatz {
	t.Helper()
	resp, err := http.Get(base + "/v1/statz")
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Pipeline *pipelineStatz `json:"pipeline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding statz: %v", err)
	}
	if st.Pipeline == nil {
		t.Fatal("statz has no pipeline section")
	}
	return st.Pipeline
}

func waitPipelineStatz(t *testing.T, base, what string, within time.Duration, cond func(*pipelineStatz) bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond(pipelineStatzAt(t, base)) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s: not reached within %v (last: %+v)", what, within, pipelineStatzAt(t, base))
}

func currentPlanAt(t *testing.T, base string) *api.CurrentPlanResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/plan/current")
	if err != nil {
		t.Fatalf("plan/current: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan/current answered %d: %s", resp.StatusCode, data)
	}
	var plan api.CurrentPlanResponse
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatalf("decoding plan %s: %v", data, err)
	}
	return &plan
}

// scrapeGauge reads one gauge from /metrics, reporting presence — a
// gauge legitimately at 0 (or negative) must still count as exposed.
func scrapeGauge(t *testing.T, base, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.eE+-]+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("parsing %s value %q: %v", name, m[1], err)
	}
	return v, true
}
