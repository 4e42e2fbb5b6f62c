package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// sideStats summarizes one side's values of one metric.
type sideStats struct {
	n          int
	q1, q2, q3 float64
}

func summarize(xs []float64) sideStats {
	q1, q2, q3 := quartiles(xs)
	return sideStats{n: len(xs), q1: q1, q2: q2, q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s sideStats) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.q2)) }

func values(recs []record, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain prints, for two sets of runs, each side's median and
// quartiles per workload × metric and whether the sides agree within the
// metric's bound. It exits 1 when any end-to-end pair disagrees or a
// side's spread exceeds the bound, so an A/A check is one command.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bccperf compare [--bench BENCHMARK.json] <records-A.jsonl> <records-B.jsonl>")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}
	return compareRecords(out, def, sides[0], sides[1])
}

func compareRecords(out io.Writer, def benchDef, a, b []record) int {
	names := map[string]bool{}
	for _, r := range append(append([]record(nil), a...), b...) {
		names[r.Workload] = true
	}
	var wls []string
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)
	status := 0
	for _, wl := range wls {
		fmt.Fprintf(out, "== %s\n", wl)
		for side, recs := range [][]record{a, b} {
			var steal []string
			for _, r := range recs {
				if r.Workload == wl {
					steal = append(steal, fmt.Sprintf("%.3f", r.StealShare))
				}
			}
			fmt.Fprintf(out, "  %c steal share per run: %s\n", 'A'+side, strings.Join(steal, " "))
		}
		fmt.Fprintf(out, "  %-22s %-34s %-34s %8s %6s  %s\n", "metric", "A median [q1 q3] spread", "B median [q1 q3] spread", "B vs A", "bound", "verdict")
		for _, m := range def.EndToEnd {
			sa, sb := summarize(values(a, wl, 0, m.Name)), summarize(values(b, wl, 0, m.Name))
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			change := ratio(sb.q2-sa.q2, math.Abs(sa.q2))
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			var verdict []string
			if math.Abs(change) <= m.Bound {
				verdict = append(verdict, "agree")
			} else {
				verdict = append(verdict, "differ")
				status = 1
			}
			if worse > m.Bound {
				verdict = append(verdict, "B worse")
			}
			if m.Name != "setup_s" && (sa.spread() > m.Bound || sb.spread() > m.Bound) {
				verdict = append(verdict, "spread over bound")
				status = 1
			}
			fmt.Fprintf(out, "  %-22s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", m.Name, side(sa), side(sb), 100*change, 100*m.Bound, strings.Join(verdict, ", "))
		}
		for _, m := range def.PerLayer {
			sa, sb := summarize(values(a, wl, 1, m.Name)), summarize(values(b, wl, 1, m.Name))
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-28s %-34s %-34s %+7.1f%%  (traced, no bound)\n", m.Name, side(sa), side(sb), 100*ratio(sb.q2-sa.q2, math.Abs(sa.q2)))
		}
	}
	return status
}

func side(s sideStats) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %.1f%% n=%d", s.q2, s.q1, s.q3, 100*s.spread(), s.n)
}
