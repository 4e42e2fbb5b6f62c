package api

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Instrumentation is the HTTP middleware the server and the gateway wrap
// every route in; the two differ only in the names below.
type Instrumentation struct {
	Registry *obs.Registry
	// Latency and Requests name the per-route/status histogram and
	// counter, each with its help text.
	Latency, LatencyHelp   string
	Requests, RequestsHelp string
	// Panics counts handler panics contained into a JSON 500.
	Panics *atomic.Uint64
	// Backend, when set, goes out as the BackendHeader of every response.
	Backend string
}

// Instrument wraps h with per-route/status latency and count recording
// plus panic containment: a handler panic (e.g. an armed admission
// fault) becomes a JSON 500 answer instead of net/http's bare connection
// reset, so chaos clients always receive a parseable status. Series are
// resolved after the handler ran, when the status code is known;
// get-or-create makes that race-free.
func (m *Instrumentation) Instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if m.Backend != "" {
			// Every response names the process that produced it, so a
			// caller behind bccgate can verify affinity with curl -i.
			w.Header().Set(BackendHeader, m.Backend)
		}
		sw := &StatusWriter{ResponseWriter: w, Code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				m.Panics.Add(1)
				sw.Code = http.StatusInternalServerError
				if !sw.Wrote {
					WriteJSON(sw, http.StatusInternalServerError,
						Errorf(http.StatusInternalServerError, "internal panic: %v", p))
				}
			}
			labels := obs.Labels{"route": route, "code": strconv.Itoa(sw.Code)}
			m.Registry.Histogram(m.Latency, m.LatencyHelp, labels, obs.DefBuckets).Observe(time.Since(start).Seconds())
			m.Registry.Counter(m.Requests, m.RequestsHelp, labels).Inc()
		}()
		h(sw, r)
	}
}
