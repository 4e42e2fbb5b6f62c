package pipeline

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// fakeJobs is a controllable in-memory stand-in for the solve-job
// manager: jobs complete instantly (with utility = query count), fail a
// scripted number of times, or hang until released — and, crucially for
// the adoption tests, the job table survives a pipeline Close/Open the
// way the durable store survives a process restart.
type fakeJobs struct {
	mu        sync.Mutex
	nextID    int
	submitted int
	failNext  int // fail this many submissions before succeeding
	hold      bool
	jobs      map[string]*fakeJob
}

type fakeJob struct {
	status api.JobStatus
	result *api.SolveResponse
}

func newFakeJobs() *fakeJobs { return &fakeJobs{jobs: make(map[string]*fakeJob)} }

func (f *fakeJobs) Submit(req *api.JobRequest) (*api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	f.submitted++
	id := fmt.Sprintf("job-%04d", f.nextID)
	j := &fakeJob{status: api.JobStatus{ID: id, State: api.JobRunning}}
	if f.failNext > 0 {
		f.failNext--
		j.status.State = api.JobFailed
		j.status.Error = "scripted failure"
	} else {
		j.result = &api.SolveResponse{
			Status:  "complete",
			Utility: float64(len(req.Instance.Queries)),
			Queries: len(req.Instance.Queries),
		}
		if !f.hold {
			j.status.State = api.JobCompleted
		}
	}
	f.jobs[id] = j
	st := j.status
	return &st, nil
}

func (f *fakeJobs) Status(id string) (*api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return nil, errors.New("job not found")
	}
	st := j.status
	return &st, nil
}

func (f *fakeJobs) Result(id string) (*api.SolveResponse, *api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok || j.status.State != api.JobCompleted {
		return nil, nil, errors.New("no result")
	}
	return j.result, &j.status, nil
}

func (f *fakeJobs) Cancel(id string) (*api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return nil, errors.New("job not found")
	}
	j.status.State = api.JobCanceled
	st := j.status
	return &st, nil
}

// release completes every held job.
func (f *fakeJobs) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hold = false
	for _, j := range f.jobs {
		if j.status.State == api.JobRunning && j.result != nil {
			j.status.State = api.JobCompleted
		}
	}
}

func (f *fakeJobs) submissions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submitted
}

func testOptions(dir string, jobs Jobs) Options {
	return Options{
		Dir:          dir,
		Window:       25 * time.Millisecond,
		PollInterval: 2 * time.Millisecond,
		Jobs:         jobs,
		NoSync:       true,
	}
}

func openT(t *testing.T, opts Options) *Pipeline {
	t.Helper()
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func lines(n int, term string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d\t%s item%d\t%d", 1717243200+i, term, i, i+1)
	}
	return out
}

func TestPipelineSolvesWindowAndPublishes(t *testing.T) {
	jobs := newFakeJobs()
	p := openT(t, testOptions(t.TempDir(), jobs))

	if _, err := p.CurrentPlan(); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("plan before publish: err = %v, want ErrNoPlan", err)
	}
	n, err := p.Ingest(append(lines(5, "table"), "# comment", ""))
	if err != nil || n != 5 {
		t.Fatalf("Ingest = %d, %v; want 5 (comment/blank dropped)", n, err)
	}
	waitFor(t, "first publish", func() bool { return p.Stats().WindowsSolved >= 1 })

	plan, err := p.CurrentPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Plan == nil || plan.Plan.Utility != 5 {
		t.Fatalf("published plan = %+v, want utility 5 (5 distinct queries)", plan.Plan)
	}
	if plan.WindowRecords != 5 || plan.Seq != 1 {
		t.Fatalf("plan metadata: records=%d seq=%d", plan.WindowRecords, plan.Seq)
	}
	st := p.Stats()
	if st.RecordsTotal != 5 || st.BacklogRecords != 0 || st.Ingested != 5 {
		t.Fatalf("conservation: total=%d backlog=%d ingested=%d", st.RecordsTotal, st.BacklogRecords, st.Ingested)
	}
	if st.PlanAgeSeconds < 0 {
		t.Fatalf("plan age %v after publish", st.PlanAgeSeconds)
	}
}

// An algo no window can run (unknown, CLI-only, or needing a target that
// windows do not carry) is refused at Open with the registry's message,
// instead of every window being submitted, refused and abandoned.
func TestOpenRejectsAlgoWindowsCannotRun(t *testing.T) {
	for name, want := range map[string]string{
		"nosuch": `pipeline: unknown algo "nosuch" (supported: `,
		"brute":  `pipeline: unknown algo "brute" (supported: `,
		"gmc3":   "pipeline: algo gmc3 requires a positive target, got 0",
	} {
		opts := testOptions(t.TempDir(), newFakeJobs())
		opts.Algo = name
		p, err := Open(opts)
		if err == nil {
			p.Close()
			t.Errorf("Open with algo %q succeeded, want an error", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Open with algo %q: %v, want %q…", name, err, want)
		}
	}
	for _, name := range []string{"", "abcc", "ig1"} {
		opts := testOptions(t.TempDir(), newFakeJobs())
		opts.Algo = name
		openT(t, opts)
	}
}

func TestPipelineIngestValidation(t *testing.T) {
	jobs := newFakeJobs()
	p := openT(t, testOptions(t.TempDir(), jobs))
	var le *LineError
	if _, err := p.Ingest([]string{"1717243200\tok query", "no tab here"}); !errors.As(err, &le) || le.Index != 1 {
		t.Fatalf("malformed ingest: err = %v, want LineError at index 1", err)
	}
	if got := p.Stats().Ingested; got != 0 {
		t.Fatalf("rejected batch still acknowledged %d lines", got)
	}
}

func TestPipelineBacklogShed(t *testing.T) {
	jobs := newFakeJobs()
	jobs.hold = true
	opts := testOptions(t.TempDir(), jobs)
	opts.MaxBacklogRecords = 5
	p := openT(t, opts)

	if _, err := p.Ingest(lines(4, "shoes")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(lines(3, "boots")); !errors.Is(err, ErrBacklog) {
		t.Fatalf("over-backlog ingest: err = %v, want ErrBacklog", err)
	}
	st := p.Stats()
	if st.IngestRejected != 3 {
		t.Fatalf("IngestRejected = %d, want 3", st.IngestRejected)
	}
	// Draining the backlog reopens ingest.
	jobs.release()
	waitFor(t, "backlog drain", func() bool { return p.Stats().BacklogRecords == 0 })
	if _, err := p.Ingest(lines(3, "boots")); err != nil {
		t.Fatalf("ingest after drain: %v", err)
	}
}

// Counters and position survive a restart: nothing is lost, nothing is
// double-counted, and the reopened pipeline keeps solving.
func TestPipelineConservationAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	jobs := newFakeJobs()
	p := openT(t, testOptions(dir, jobs))
	if _, err := p.Ingest(lines(4, "alpha")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch solved", func() bool { return p.Stats().RecordsTotal == 4 })
	solvedBefore := p.Stats().WindowsSolved
	subsBefore := jobs.submissions()
	p.Close()

	p2 := openT(t, testOptions(dir, jobs))
	st := p2.Stats()
	if st.RecordsTotal != 4 || st.WindowsSolved != solvedBefore {
		t.Fatalf("counters after reopen: total=%d solved=%d, want 4/%d", st.RecordsTotal, st.WindowsSolved, solvedBefore)
	}
	if plan, err := p2.CurrentPlan(); err != nil || plan.Plan == nil {
		t.Fatalf("last-good plan lost across reopen: %v", err)
	}
	// Already-consumed records must not be re-solved.
	time.Sleep(100 * time.Millisecond)
	if got := jobs.submissions(); got != subsBefore {
		t.Fatalf("reopen re-solved a consumed window: %d submissions, had %d", got, subsBefore)
	}
	if _, err := p2.Ingest(lines(3, "beta")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second batch solved", func() bool { return p2.Stats().RecordsTotal == 7 })
	if st := p2.Stats(); st.BacklogRecords != 0 || st.WindowsSolved != solvedBefore+1 {
		t.Fatalf("after second batch: backlog=%d solved=%d", st.BacklogRecords, st.WindowsSolved)
	}
}

// A window whose job was submitted but not finished when the pipeline
// stopped is adopted on reopen: the finished result is taken without a
// second submission.
func TestPipelineAdoptsInflightWindow(t *testing.T) {
	dir := t.TempDir()
	jobs := newFakeJobs()
	jobs.hold = true
	p := openT(t, testOptions(dir, jobs))
	if _, err := p.Ingest(lines(6, "gamma")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "window in flight", func() bool { return p.Stats().Inflight })
	p.Close()

	// The "restart": the job completes while the pipeline is down.
	jobs.release()
	p2 := openT(t, testOptions(dir, jobs))
	waitFor(t, "adopted publish", func() bool { return p2.Stats().WindowsSolved == 1 })
	if got := jobs.submissions(); got != 1 {
		t.Fatalf("adoption re-submitted: %d submissions, want 1", got)
	}
	st := p2.Stats()
	if st.RecordsTotal != 6 || st.BacklogRecords != 0 || st.Inflight {
		t.Fatalf("after adoption: total=%d backlog=%d inflight=%v", st.RecordsTotal, st.BacklogRecords, st.Inflight)
	}
}

// If the in-flight job vanished with the crash (e.g. its store was on
// another disk), the window is rebuilt from the recorded WAL range and
// re-solved — acknowledged records are never dropped.
func TestPipelineRebuildsLostInflightJob(t *testing.T) {
	dir := t.TempDir()
	jobs := newFakeJobs()
	jobs.hold = true
	p := openT(t, testOptions(dir, jobs))
	if _, err := p.Ingest(lines(5, "delta")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "window in flight", func() bool { return p.Stats().Inflight })
	p.Close()

	fresh := newFakeJobs() // job table lost in the "crash"
	p2 := openT(t, testOptions(dir, fresh))
	waitFor(t, "rebuilt publish", func() bool { return p2.Stats().WindowsSolved == 1 })
	if got := fresh.submissions(); got != 1 {
		t.Fatalf("rebuild submitted %d jobs, want 1", got)
	}
	if st := p2.Stats(); st.RecordsTotal != 5 || st.BacklogRecords != 0 {
		t.Fatalf("after rebuild: total=%d backlog=%d", st.RecordsTotal, st.BacklogRecords)
	}
}

// Failures retry with backoff, then the window is abandoned loudly —
// counted, records accounted, and the scheduler keeps going.
func TestPipelineRetriesThenAbandons(t *testing.T) {
	jobs := newFakeJobs()
	jobs.failNext = 100 // every attempt fails
	opts := testOptions(t.TempDir(), jobs)
	opts.MaxRetries = 2
	opts.Backoff.Base = time.Millisecond
	opts.Backoff.Max = 2 * time.Millisecond
	p := openT(t, opts)

	if _, err := p.Ingest(lines(3, "epsilon")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "window abandoned", func() bool { return p.Stats().WindowsFailed >= 1 })
	st := p.Stats()
	if st.RecordsFailed != 3 || st.BacklogRecords != 0 {
		t.Fatalf("abandoned window: failed=%d backlog=%d", st.RecordsFailed, st.BacklogRecords)
	}
	if st.SolveRetries < 2 {
		t.Fatalf("SolveRetries = %d, want >= 2", st.SolveRetries)
	}
	// The pipeline is not wedged: later windows still solve.
	jobs.mu.Lock()
	jobs.failNext = 0
	jobs.mu.Unlock()
	if _, err := p.Ingest(lines(2, "zeta")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery publish", func() bool { return p.Stats().WindowsSolved >= 1 })
	if st := p.Stats(); st.RecordsTotal != 2 {
		t.Fatalf("post-recovery RecordsTotal = %d, want 2", st.RecordsTotal)
	}
}

// writeBackdatedSegment plants a WAL segment whose records claim an old
// arrival time — the only way to exercise the stale-skip rung without
// waiting CoalesceLimit real windows. The framing is a public format
// (DESIGN.md §16), so spelling it out here doubles as a format pin.
func writeBackdatedSegment(t *testing.T, dir string, bodies []string, unixMS int64) {
	t.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var sb strings.Builder
	for _, b := range bodies {
		sb.WriteString(fmt.Sprintf("bccwal/1 %08x %d %d\n%s\n",
			crc32.Checksum([]byte(b), castagnoli), len(b), unixMS, b))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "wal-0000000000000001.bccwal")
	if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSkipsStaleBacklog(t *testing.T) {
	dir := t.TempDir()
	// Records that arrived 10 minutes ago against a 25ms window are
	// hopelessly past the CoalesceLimit horizon.
	writeBackdatedSegment(t, dir, lines(4, "stale"), time.Now().Add(-10*time.Minute).UnixMilli())

	jobs := newFakeJobs()
	p := openT(t, testOptions(dir, jobs))
	waitFor(t, "stale skip", func() bool { return p.Stats().RecordsSkipped == 4 })
	st := p.Stats()
	if st.WindowsSkipped < 1 || st.RecordsTotal != 0 {
		t.Fatalf("stale backlog: skipped windows=%d total=%d", st.WindowsSkipped, st.RecordsTotal)
	}
	if jobs.submissions() != 0 {
		t.Fatalf("stale records were solved (%d submissions)", jobs.submissions())
	}
	// Fresh records after the skip solve normally.
	if _, err := p.Ingest(lines(2, "fresh")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fresh publish", func() bool { return p.Stats().WindowsSolved == 1 })
	if st := p.Stats(); st.RecordsTotal != 2 || st.BacklogRecords != 0 {
		t.Fatalf("after fresh batch: total=%d backlog=%d", st.RecordsTotal, st.BacklogRecords)
	}
}

// A backlog spanning several windows coalesces into one solve, with the
// folded windows counted.
func TestPipelineCoalescesBacklog(t *testing.T) {
	jobs := newFakeJobs()
	jobs.hold = true
	opts := testOptions(t.TempDir(), jobs)
	opts.CoalesceLimit = 1000 // never skip in this test
	p := openT(t, opts)

	// First batch goes in flight and holds the scheduler...
	if _, err := p.Ingest(lines(2, "head")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "head in flight", func() bool { return p.Stats().Inflight })
	// ...while more arrives over a span exceeding one window.
	if _, err := p.Ingest(lines(3, "tail-a")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * opts.Window)
	if _, err := p.Ingest(lines(3, "tail-b")); err != nil {
		t.Fatal(err)
	}
	jobs.release()
	waitFor(t, "both windows published", func() bool { return p.Stats().WindowsSolved == 2 })
	st := p.Stats()
	if st.WindowsCoalesced < 1 {
		t.Fatalf("WindowsCoalesced = %d, want >= 1 (tail spanned %v)", st.WindowsCoalesced, 3*opts.Window)
	}
	if st.RecordsTotal != 8 || st.BacklogRecords != 0 {
		t.Fatalf("conservation after coalesce: total=%d backlog=%d", st.RecordsTotal, st.BacklogRecords)
	}
}

// A scribbled state record is never fatal: the pipeline falls back to
// the WAL cursor, keeps already-consumed records consumed, and carries
// on solving new ones.
func TestPipelineSurvivesCorruptStateRecord(t *testing.T) {
	dir := t.TempDir()
	jobs := newFakeJobs()
	p := openT(t, testOptions(dir, jobs))
	if _, err := p.Ingest(lines(3, "eta")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "publish", func() bool { return p.Stats().WindowsSolved == 1 })
	subs := jobs.submissions()
	p.Close()

	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("scribble"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := openT(t, testOptions(dir, jobs))
	time.Sleep(100 * time.Millisecond)
	if got := jobs.submissions(); got != subs {
		t.Fatalf("cursor fallback re-solved consumed records (%d submissions, had %d)", got, subs)
	}
	if _, err := p2.Ingest(lines(2, "theta")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-corruption publish", func() bool { return p2.Stats().WindowsSolved >= 1 })
}
