package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct{ busy, idle, steal uint64 }

// readHostCPU reads /proc/stat; ok is false where it does not exist.
func readHostCPU() (c hostCPU, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return c, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return c, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return c, false
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	c.idle = v[3] + v[4]
	c.steal = v[7]
	c.busy = v[0] + v[1] + v[2] + v[5] + v[6]
	return c, true
}

// stealShare is the share of all vCPU time between a and b that the
// hypervisor took from the guest.
func stealShare(a, b hostCPU) float64 {
	total := float64((b.busy + b.idle + b.steal) - (a.busy + a.idle + a.steal))
	return ratio(float64(b.steal-a.steal), total)
}

// runtimeStats samples the Go runtime counters the per-layer metrics use.
type runtimeStats struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: u(0), allocObjects: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// window is the process- and host-level accounting around one measured
// phase.
type window struct {
	start, end   time.Time
	cpu0, cpu1   time.Duration
	host0, host1 hostCPU
	hostOK       bool
	rt0, rt1     runtimeStats
}

func openWindow() *window {
	w := &window{start: time.Now(), cpu0: processCPU(), rt0: readRuntime()}
	var ok bool
	w.host0, ok = readHostCPU()
	w.hostOK = ok
	return w
}

func (w *window) close() {
	w.end = time.Now()
	w.cpu1 = processCPU()
	w.rt1 = readRuntime()
	var ok bool
	w.host1, ok = readHostCPU()
	w.hostOK = w.hostOK && ok
}

func (w *window) cpu() time.Duration { return w.cpu1 - w.cpu0 }

func (w *window) steal() float64 {
	if !w.hostOK {
		return 0
	}
	return stealShare(w.host0, w.host1)
}

// buildID names the code under test: the VCS revision go build stamped
// (absent outside a git checkout) and a digest of the module's Go
// sources, which identifies the code either way.
func buildID() (revision string, dirty bool, sources string) {
	revision = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return revision, dirty, sourceDigest(".")
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories (build output, run records, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostInfo is recorded with every run.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"commit_dirty,omitempty"`
	Sources    string `json:"source_digest"`
}

func readHostInfo() hostInfo {
	rev, dirty, src := buildID()
	return hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: rev, Dirty: dirty, Sources: src,
	}
}
