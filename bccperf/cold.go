package main

import (
	"context"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/obs"
)

// planning is solve-cold's set-up state: the materialized instances.
type planning struct {
	instances []*model.Instance
}

func setupPlanning(in *inputs) *planning {
	p := &planning{}
	for _, op := range in.cold {
		p.instances = append(p.instances, dataset.Private(op.seed, op.budget))
	}
	return p
}

// coldResult is one solve-cold operation.
type coldResult struct {
	start, done time.Duration
	out         algo.Outcome
	err         error
	cpu         time.Duration // process CPU during the solve (traced runs)
}

// run is solve-cold's measured phase: one caller, a closed loop of cold
// A^BCC solves through the registry, in the seeded order.
func (p *planning) run(tr *tracer) []coldResult {
	d, _ := algo.Lookup("abcc")
	res := make([]coldResult, len(p.instances))
	start := time.Now()
	for i, inst := range p.instances {
		r := &res[i]
		ctx := context.Background()
		var root, solve *span
		var cpu0 time.Duration
		if tr != nil {
			root = tr.begin(i, 0, layerGen)
			solve = tr.begin(i, root.ID, layerSolve)
			solve.rec = obs.NewRecorder()
			ctx = obs.WithRecorder(ctx, solve.rec)
			cpu0 = processCPU()
		}
		r.start = time.Since(start)
		r.out, r.err = d.Run(ctx, inst, algo.Params{Seed: solverSeed})
		r.done = time.Since(start)
		if tr != nil {
			r.cpu = processCPU() - cpu0
			tr.finish(solve)
			tr.finish(root)
		}
	}
	return res
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
