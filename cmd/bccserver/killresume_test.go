// Kill-and-resume acceptance soak: builds the real bccserver binary,
// starts it with a durable job store, submits a GMC3 job big enough to
// span many checkpoint slices, SIGKILLs the process mid-solve, restarts
// it on the same -jobs-dir and asserts the same job completes from its
// checkpoint (Resumes > 0, bcc_jobs_resumed_total > 0).
//
// The soak SIGKILLs subprocesses and takes on the order of a minute
// under -race, so it is gated behind an explicit flag:
//
//	go test -race -run TestKillResume -jobs.soak ./cmd/bccserver
//
// (or `make jobs-smoke`). Without -jobs.soak the test skips and the
// package contributes nothing to a plain `go test ./...`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
)

var jobsSoak = flag.Bool("jobs.soak", false,
	"run the kill-and-resume job soak (builds and SIGKILLs real bccserver processes)")

func TestKillResume(t *testing.T) {
	if !*jobsSoak {
		t.Skip("kill-and-resume soak disabled; run with -jobs.soak")
	}
	if runtime.GOOS == "windows" {
		t.Skip("soak relies on SIGKILL/SIGTERM process control")
	}

	bin := buildServerBinary(t)

	t.Run("gmc3", func(t *testing.T) {
		res := runKillResume(t, bin, soakJobRequest(t))
		if res.Achieved == nil || !*res.Achieved {
			t.Fatalf("result did not reach the target: %+v", res)
		}
	})
}

// runKillResume drives one job through the SIGKILL/restart pattern:
// submit, wait for a persisted checkpoint, kill the server hard,
// restart it on the same store, and assert the same job completes from
// its checkpoint with at least one recorded resume. Returns the final
// result for algorithm-specific assertions.
func runKillResume(t *testing.T, bin string, req *api.JobRequest) *api.SolveResponse {
	t.Helper()
	jobsDir := t.TempDir()

	// First life: serve, accept the job, checkpoint, die hard.
	srv1 := startServerProc(t, bin, jobsDir)
	st := submitJob(t, srv1.base, req)
	if st.State != api.JobQueued && st.State != api.JobRunning {
		t.Fatalf("submitted job state = %q, want queued/running", st.State)
	}
	id := st.ID
	t.Logf("submitted job %s (algo %s, target %.0f)", id, req.Algo, req.Target)

	// Kill only once a checkpoint is provably on disk — the metric counts
	// successful persisted checkpoint writes, not in-memory incumbents.
	waitCounter(t, srv1.base, "bcc_jobs_checkpoints_total", 1, 2*time.Minute)
	if cur := jobStatusAt(t, srv1.base, id); api.JobTerminal(cur.State) {
		t.Fatalf("job reached %q before the kill; grow the soak instance", cur.State)
	}
	srv1.sigkill(t)

	// Second life: same store, fresh process (and a fresh port, so the
	// restart never races the kernel releasing the old listener).
	srv2 := startServerProc(t, bin, jobsDir)
	defer srv2.sigterm(t)

	final := awaitTerminalJob(t, srv2.base, id, 5*time.Minute)
	if final.State != api.JobCompleted {
		t.Fatalf("resumed job state = %q (error %q), want completed", final.State, final.Error)
	}
	if final.Resumes < 1 {
		t.Fatalf("Resumes = %d, want >= 1 after a SIGKILL restart", final.Resumes)
	}
	if final.Progress == nil || final.Progress.Slices < 2 {
		t.Fatalf("Progress = %+v, want >= 2 slices (checkpointed solve)", final.Progress)
	}

	res := jobResult(t, srv2.base, id)
	if res.Algo != req.Algo || res.Fingerprint != final.Fingerprint {
		t.Fatalf("result algo=%q fingerprint=%q, want %s/%q", res.Algo, res.Fingerprint, req.Algo, final.Fingerprint)
	}

	if v := scrapeCounter(t, srv2.base, "bcc_jobs_resumed_total"); v < 1 {
		t.Fatalf("bcc_jobs_resumed_total = %v, want >= 1", v)
	}
	t.Logf("job %s completed after resume: %d slices, %.0fms solve, cost %.1f",
		id, final.Progress.Slices, final.Progress.ElapsedMS, res.Cost)
	return res
}

// buildServerBinary compiles bccserver (race-instrumented whenever the
// test binary is, via raceFlag) into the test temp dir.
func buildServerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bccserver")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "repro/cmd/bccserver")
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bccserver: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := string(bytes.TrimSpace(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// serverProc is one bccserver subprocess lifetime.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *bytes.Buffer
}

// startServerProc launches bccserver on a fresh loopback port with the
// given job store and a tight 200ms checkpoint interval, and waits for
// it to answer /v1/healthz.
func startServerProc(t *testing.T, bin, jobsDir string) *serverProc {
	t.Helper()
	addr := freeLoopbackAddr(t)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-jobs-dir", jobsDir,
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

func (p *serverProc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	p.cmd.Wait()
}

func (p *serverProc) sigterm(t *testing.T) {
	t.Helper()
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Log("graceful shutdown timed out; killing")
		p.cmd.Process.Kill()
		<-done
	}
}

func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("picking port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, base string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s not healthy within %v", base, within)
}

// soakJobRequest builds a GMC3 job over a synthetic instance sized so
// the solve spans many 200ms checkpoint slices (tens of seconds under
// -race) without making the soak unbounded.
func soakJobRequest(t *testing.T) *api.JobRequest {
	t.Helper()
	in := dataset.Synthetic(7, 150, 1)
	total := 0.0
	for _, q := range in.Queries() {
		total += q.Utility
	}
	var buf bytes.Buffer
	if err := dataset.Write(&buf, in); err != nil {
		t.Fatalf("serializing instance: %v", err)
	}
	var ff dataset.FileFormat
	if err := json.Unmarshal(buf.Bytes(), &ff); err != nil {
		t.Fatalf("decoding instance: %v", err)
	}
	return &api.JobRequest{
		SolveRequest: api.SolveRequest{
			Instance: ff,
			Algo:     "gmc3",
			Target:   total * 0.8,
			Seed:     7,
		},
		JobDeadlineMS: (20 * time.Minute).Milliseconds(),
	}
}

func submitJob(t *testing.T, base string, req *api.JobRequest) *api.JobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submitting job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit answered %d: %s", resp.StatusCode, b)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return &st
}

func jobStatusAt(t *testing.T, base, id string) *api.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("job status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status answered %d: %s", resp.StatusCode, b)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return &st
}

func awaitTerminalJob(t *testing.T, base, id string, within time.Duration) *api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		st := jobStatusAt(t, base, id)
		if api.JobTerminal(st.State) {
			return st
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within %v", id, within)
	return nil
}

func jobResult(t *testing.T, base, id string) *api.SolveResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("job result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("result answered %d: %s", resp.StatusCode, b)
	}
	var res api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return &res
}

// scrapeCounter reads one counter from /metrics (0 when absent).
func scrapeCounter(t *testing.T, base, name string) float64 {
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
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("parsing %s value %q: %v", name, m[1], err)
	}
	return v
}

func waitCounter(t *testing.T, base, name string, min float64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if scrapeCounter(t, base, name) >= min {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s did not reach %v within %v", name, min, within)
}
