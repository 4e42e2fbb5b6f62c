# Convenience targets for the BCC reproduction.

GO ?= go

.PHONY: build test race race-ci bench bench-smoke bench-json figures figures-full cover fmt vet clean ci serve soak-smoke fuzz-smoke cluster-smoke jobs-smoke pipeline-smoke eval-smoke load chaos

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

## race-ci: the race detector over the curated list of concurrent and
## guarded packages and the serving/resilience stack, as `make ci` and
## .github/workflows/ci.yml run it.
race-ci:
	$(GO) test -race ./internal/qk/ ./internal/core/ ./internal/gmc3/ ./internal/cover/ ./internal/knapsack/ ./internal/mc3/ ./internal/wgraph/ ./internal/server/ ./internal/solvecache/ ./internal/obs/ ./internal/resilience/ ./internal/client/ ./internal/loadgen/ ./internal/cluster/ ./internal/jobs/ ./internal/durable/ ./internal/wal/ ./internal/pipeline/ ./internal/algo/ ./internal/submod/ ./internal/eval/ ./internal/incr/ ./internal/model/

## bench: every benchmark, including one run of each paper figure.
bench:
	$(GO) test -bench=. -benchmem -timeout=60m ./...

## bench-smoke: run every benchmark exactly once (no unit tests) so CI
## notices when a benchmark rots. Takes a few minutes on a laptop.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -timeout=30m ./...

## bench-json: regenerate BENCH_PR10.json, the versioned machine-readable
## benchmark report (ns/op, allocs, per-stage time splits for every
## servable registry algorithm, the utility-vs-time Pareto sweep, and the
## warm-vs-cold incremental re-solve drift sweep at 1%/5%/20% churn).
bench-json:
	$(GO) run ./cmd/bccbench -bench-json BENCH_PR10.json

## figures: print the reproduced tables for every figure (Small preset).
figures:
	$(GO) run ./cmd/bccbench

## figures-full: paper-scale dimensions; expect hours.
figures-full:
	$(GO) run ./cmd/bccbench -full

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

## soak-smoke: the CI-grade chaos soak — 10 seconds of concurrent
## retrying clients against a server with panic faults armed at the
## admission/dequeue/cache layers, under the race detector.
soak-smoke:
	$(GO) test -race -run TestChaosSoak -v ./internal/server/ -soak 10s

## fuzz-smoke: a short native-fuzz pass over the instance decode paths
## (FuzzRead and the server-facing FuzzFromFormat), the durable
## record codecs (bccjob/1 and the bccwal/1 query-log WAL framing), the
## coverage tracker against its string-keyed oracle (FuzzTracker), the
## MC3 greedy against its string-keyed oracle (FuzzMC3), the QK restart
## kernels against their dense oracles (FuzzQK), the exact knapsack DP
## against its fresh-table oracle (FuzzKnapsack), the query-log parser
## (FuzzParse), /v1/solve answering any body the same way twice
## (FuzzSolveBody), /v1/solve answering a body's digest as the body's
## repeat or with 412 (FuzzSolveDigest), the /v1/solve schema decoder
## against encoding/json (FuzzDecodeSolveRequest), and the warm-plan
## repair against its string-keyed oracle (FuzzRepairSets).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFromFormat -fuzztime 10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzJobRecord -fuzztime 10s ./internal/jobs/
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzTracker -fuzztime 10s ./internal/cover/
	$(GO) test -run '^$$' -fuzz FuzzMC3 -fuzztime 10s ./internal/mc3/
	$(GO) test -run '^$$' -fuzz FuzzQK -fuzztime 10s ./internal/qk/
	$(GO) test -run '^$$' -fuzz FuzzKnapsack -fuzztime 10s ./internal/knapsack/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/querylog/
	$(GO) test -run '^$$' -fuzz FuzzSolveBody -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzSolveDigest -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSolveRequest -fuzztime 10s ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzRepairSets -fuzztime 10s ./internal/incr/

## cluster-smoke: the scale-out acceptance scenario under the race
## detector — a bccgate gateway over two in-process backends, checking
## fingerprint affinity (re-sent instances hit the warm cache on the
## same backend), kill-and-reroute, ordered scatter-gather, plus a
## 10-second load soak through the degraded fleet.
cluster-smoke:
	$(GO) test -race -run TestClusterSmoke -v ./internal/cluster/ -cluster.soak 10s

## jobs-smoke: the durable-jobs acceptance pair, both under the race
## detector — a 10-second chaos run over internal/jobs with panic
## faults armed at every jobs.* point (append/checkpoint/resume), and
## the kill-and-resume soak: real bccserver processes SIGKILLed
## mid-job (one GMC3 job), restarted on the same
## -jobs-dir, and required to finish the same job from its checkpoint
## (resumed counter > 0).
jobs-smoke:
	$(GO) test -race -run TestJobsChaosSoak -v ./internal/jobs/ -jobs.chaos 10s
	$(GO) test -race -run '^TestKillResume$$' -v -timeout 15m ./cmd/bccserver/ -jobs.soak

## pipeline-smoke: the continuous-pipeline acceptance soak under the
## race detector — a real bccserver SIGKILLed with acknowledged
## query-log records still unconsumed (ideally mid-window-solve),
## restarted on the same -wal-dir, and required to account for every
## acknowledged record exactly once (zero loss, no double-solved
## window) and re-publish a plan with the staleness gauge exposed.
pipeline-smoke:
	$(GO) test -race -run TestPipelineKillResume -v -timeout 15m ./cmd/bccserver/ -pipeline.soak

## eval-smoke: the solution-quality gate — every registered algorithm
## must clear its pinned utility-ratio floor on the golden eval suite
## (internal/eval/testdata/suite.jsonl) at the pinned seed. Exits
## non-zero on any regression below a floor.
eval-smoke:
	$(GO) run ./cmd/bcceval

## ci: what .github/workflows/ci.yml runs, whose steps call the targets
## below rather than repeating their commands — build (including the server,
## gateway, load-driver and eval binaries), tests, vet, a gofmt gate, the race
## detector over the concurrent/guarded packages and the
## serving/resilience stack, the chaos soak, the cluster smoke, the
## durable-jobs smoke, the continuous-pipeline smoke, a fuzz smoke, the
## solution-quality gate, a one-iteration benchmark smoke, and the
## checks of the nested bccperf benchmark module, which the root
## `go test ./...` does not reach.
ci:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/bccserver
	$(GO) build -o /dev/null ./cmd/bccgate
	$(GO) build -o /dev/null ./cmd/bccload
	$(GO) build -o /dev/null ./cmd/bcceval
	$(GO) test -shuffle=on ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	cd bccperf && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) race-ci
	$(MAKE) soak-smoke
	$(MAKE) cluster-smoke
	$(MAKE) jobs-smoke
	$(MAKE) pipeline-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) eval-smoke
	$(MAKE) bench-smoke

## serve: run a local solving server, cache pre-warmed with the
## quickstart example instance and snapshotting its cache across
## restarts (see README "Serving" and "Surviving failures").
serve:
	$(GO) run ./cmd/bccserver -addr localhost:8080 -warm examples/instances/quickstart.json -snapshot bcc-cache.bccsnap

## load: drive 10 seconds of load at a server started with `make serve`.
load:
	$(GO) run ./cmd/bccload -addr http://localhost:8080 -duration 10s

## chaos: the self-contained chaos demo — in-process server, armed
## faults, resilient client; no external server needed.
chaos:
	$(GO) run ./cmd/bccload -chaos -duration 10s

clean:
	rm -f test_output.txt bench_output.txt
