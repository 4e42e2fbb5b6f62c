// Command bccperf is the repository's benchmark. It drives the system
// only through entry points that outlive the planned solver and façade
// rewrites: the HTTP API of in-process server.New backends behind
// cluster.NewGateway, and algo.Lookup(name).Run.
//
//	bccperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record file]
//	bccperf compare <records-A.jsonl> <records-B.jsonl>
//
// Workloads (see workload.go): solve-cold, a closed loop of cold A^BCC
// solves; serve-hot, open-loop cache hits through the gateway; and
// serve-drift, open-loop warm re-solves of drifted instances. The seed
// alone fixes every input. With --trace 0 a run sets up three times
// (setup_s is the median), measures the end-to-end metrics and verifies
// every answer. With --trace 1 it measures an untraced pass and then a
// traced pass on a fresh set-up, times layers standalone on the same
// request bodies, and prints the per-layer metrics. The last line of
// standard output is the JSON result; every run is also appended, with
// its host record, to the record file, which compare reads.
//
// Run it from the repository root through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, a few milliseconds after exec.
var processStart = time.Now()

// setups is how many times a --trace 0 run sets up; setup_s is the
// median.
const setups = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to the record file.
type record struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        int               `json:"seconds"`
	Trace          int               `json:"trace"`
	Time           string            `json:"time"`
	Host           hostInfo          `json:"host"`
	StealShare     float64           `json:"env_steal_share"`
	InputsDigest   string            `json:"inputs_digest"`
	TailPercentile float64           `json:"latency_tail_percentile"`
	TailSamples    int               `json:"latency_samples"`
	SetupS         []float64         `json:"setup_s_each"`
	LagP50MS       float64           `json:"gen_lag_p50_ms"`
	LagMaxMS       float64           `json:"gen_lag_max_ms"`
	Counters       map[string]uint64 `json:"counters,omitempty"`
	OpLatencyMS    []float64         `json:"op_latency_ms"`
	OpClass        []string          `json:"op_class"`
	Failures       []string          `json:"failures,omitempty"`
	NotMeasured    map[string]string `json:"not_measured,omitempty"`
	Result         result            `json:"result"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bccperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: solve-cold, serve-hot or serve-drift")
	seed := fs.Int64("seed", 1, "seed that fixes every input")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	recordPath := fs.String("record", filepath.Join(".bench_runs", "runs.jsonl"), "file each run's record is appended to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "bccperf: need --workload solve-cold|serve-hot|serve-drift, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	var (
		rec *record
		err error
	)
	if *traced == 1 {
		rec, err = runTraced(w, *seed, *seconds, filepath.Dir(*recordPath))
	} else {
		rec, err = runPlain(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bccperf: %v\n", err)
		return 1
	}
	rec.Seed, rec.Seconds, rec.Trace = *seed, *seconds, *traced
	rec.Time = time.Now().UTC().Format(time.RFC3339)
	rec.Host = readHostInfo()
	printRun(os.Stdout, rec)
	if err := appendRecord(*recordPath, rec); err != nil {
		fmt.Fprintf(os.Stderr, "bccperf: recording run: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bccperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(w workload, seed int64, seconds int) (*record, error) {
	var st *state
	var setupS []float64
	for k := 0; k < setups; k++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		var err error
		if st, err = setup(w, seed, seconds, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()
	p, err := measure(st, nil)
	if err != nil {
		return nil, err
	}
	rec := p.record()
	rec.SetupS = setupS
	e2e := p.endToEnd()
	e2e["setup_s"] = metric{median(setupS), "s"}
	rec.Result.Metrics = e2e
	return rec, nil
}

// runTraced measures an untraced pass and a traced pass, each on its own
// fresh set-up, then times layers standalone on the traced pass's
// request bodies. Only per-layer metrics are reported; the spans are
// written to spanDir.
func runTraced(w workload, seed int64, seconds int, spanDir string) (*record, error) {
	st, err := setup(w, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(st, nil)
	st.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if st, err = setup(w, seed, seconds, tr); err != nil {
		return nil, err
	}
	defer st.close()
	traced, err := measure(st, tr)
	if err != nil {
		return nil, err
	}
	traced.spans = tr.all()
	if st.srv != nil {
		traced.spans = solveChildren(tr, traced.spans)
	}
	sa := timeStandalone(st, traced)
	rec := traced.record()
	rec.Failures = append(plain.failures, traced.failures...)
	rec.Result.Failed += plain.failed()
	rec.Result.Attempted += len(plain.lat)
	rec.Result.Correct = rec.Result.Failed == 0
	rec.Result.Metrics, rec.NotMeasured = perLayer(w, plain, traced, sa)
	if err := writeSpans(filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed)), traced.spans); err != nil {
		return nil, err
	}
	printSelfTimes(os.Stdout, traced)
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, spans []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printRun writes the human-readable summary that precedes the JSON line.
func printRun(out io.Writer, rec *record) {
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d  ops attempted %d succeeded %d failed %d correct %v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Result.Attempted,
		rec.Result.Attempted-rec.Result.Failed, rec.Result.Failed, rec.Result.Correct)
	fmt.Fprintf(out, "host nproc %d GOMAXPROCS %d %s commit %s sources %s steal %.3f\n",
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit, rec.Host.Sources, rec.StealShare)
	fmt.Fprintf(out, "latency tail is p%.1f of %d samples; generator lag p50 %.3f ms max %.3f ms; inputs %s\n",
		rec.TailPercentile, rec.TailSamples, rec.LagP50MS, rec.LagMaxMS, rec.InputsDigest[:16])
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		note := ""
		if why, ok := rec.NotMeasured[n]; ok {
			note = "  (not measured: " + why + ")"
		}
		fmt.Fprintf(out, "  %-32s %14.4f %s%s\n", n, m.Value, m.Unit, note)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
}
