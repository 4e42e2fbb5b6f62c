package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// solveBuckets are the latency buckets for whole solver executions —
// coarser than the HTTP defaults because a full A^BCC run on a large
// instance is measured in seconds, not microseconds.
var solveBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 30, 60, 120}

// initMetrics registers the server's gauge/counter families on its
// registry. Counters that the request path already maintains as atomics
// are bridged with CounterFunc so the hot path keeps its single Add;
// point-in-time values (queue depth, goroutines, cache entries) are
// read at scrape time via GaugeFunc.
func (s *Server) initMetrics() {
	reg := s.reg
	reg.GaugeFunc("bcc_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("bcc_goroutines", "Goroutines currently live in the process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("bcc_pool_workers", "Solver worker pool size.", nil,
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("bcc_pool_queue_capacity", "Admission queue capacity.", nil,
		func() float64 { return float64(s.pool.QueueCapacity()) })
	reg.GaugeFunc("bcc_pool_queue_depth", "Jobs waiting for a worker.", nil,
		func() float64 { return float64(s.pool.QueueDepth()) })
	reg.GaugeFunc("bcc_inflight_solves", "Solver executions running right now.", nil,
		func() float64 { return float64(s.inflight.Load()) })

	reg.CounterFunc("bcc_solve_requests_total", "Solve requests admitted (batch items count).", nil,
		func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("bcc_solves_total", "Underlying solver executions on the pool.", nil,
		func() float64 { return float64(s.solves.Load()) })
	reg.CounterFunc("bcc_rejected_total", "Requests shed with HTTP 429 (queue full).", nil,
		func() float64 { return float64(s.rejected.Load()) })
	reg.CounterFunc("bcc_shed_tier_total", "Exact-tier requests downgraded to the fast tier under queue pressure.", nil,
		func() float64 { return float64(s.shedTier.Load()) })
	reg.CounterFunc("bcc_repeat_answers_total", "Solve requests answered through the body-digest repeat memo.", nil,
		func() float64 { return float64(s.repeatAnswers.Load()) })
	reg.CounterFunc("bcc_bad_requests_total", "Requests failing validation (4xx).", nil,
		func() float64 { return float64(s.badRequests.Load()) })
	reg.CounterFunc("bcc_deadline_results_total", "HTTP 200 answers carrying a non-complete status.", nil,
		func() float64 { return float64(s.deadlineResults.Load()) })

	reg.CounterFunc("bcc_panics_recovered_total", "Handler/worker/snapshot panics contained into responses.", nil,
		func() float64 { return float64(s.panics.Load()) })
	reg.GaugeFunc("bcc_draining", "1 once BeginDrain was called (healthz answers 503), else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("bcc_retry_after_hint_seconds", "Current adaptive Retry-After advice for shed requests.", nil,
		func() float64 { return float64(s.retryAfterSeconds()) })

	reg.CounterFunc("bcc_snapshot_saves_total", "Successful cache snapshot saves.", nil,
		func() float64 { return float64(s.snapSaves.Load()) })
	reg.CounterFunc("bcc_snapshot_save_errors_total", "Failed cache snapshot saves (incl. contained panics).", nil,
		func() float64 { return float64(s.snapSaveErrors.Load()) })
	reg.CounterFunc("bcc_snapshot_restored_entries_total", "Cache entries restored from snapshots.", nil,
		func() float64 { return float64(s.snapRestored.Load()) })
	reg.CounterFunc("bcc_snapshot_load_errors_total", "Rejected snapshot loads (missing, corrupt, version mismatch).", nil,
		func() float64 { return float64(s.snapLoadErrors.Load()) })
	reg.GaugeFunc("bcc_snapshot_age_seconds", "Seconds since the last successful snapshot save (-1 = never).", nil,
		s.snapshotAgeSeconds)

	reg.GaugeFunc("bcc_cache_entries", "Live solution cache entries.", nil,
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("bcc_cache_inflight", "Single-flight leaders currently running.", nil,
		func() float64 { return float64(s.cache.Stats().InFlight) })
	reg.CounterFunc("bcc_cache_hits_total", "Lookups answered from a stored entry.", nil,
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("bcc_cache_misses_total", "Lookups that became flight leaders.", nil,
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("bcc_cache_shared_waits_total", "Lookups that joined another caller's flight.", nil,
		func() float64 { return float64(s.cache.Stats().SharedWaits) })
	reg.CounterFunc("bcc_cache_evictions_total", "Entries dropped by LRU capacity pressure.", nil,
		func() float64 { return float64(s.cache.Stats().Evictions) })
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// DebugHandler returns the opt-in debug mux: net/http/pprof plus a
// second /metrics mount. It is deliberately not part of Handler() —
// cmd/bccserver only exposes it on -debug-addr, so profiling endpoints
// never face production traffic by accident.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}
