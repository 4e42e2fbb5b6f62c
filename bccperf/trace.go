package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The traced run records one span per layer boundary, from benchmark
// code only: the generator's operation, a wrapper around the gateway's
// http.Handler, a RoundTripper around every gateway→backend call, a
// wrapper around each backend's http.Handler and, inside it, the solve
// path the backend reports as duration_ms. In solve-cold the solve layer
// is the span around Descriptor.Run. Layers are listed outermost first;
// a span's depth is its layer's index.
const (
	layerGen = iota
	layerGateway
	layerCall
	layerBackend
	layerSolve
	numLayers
)

var layerNames = [numLayers]string{"gen", "gateway", "call", "backend", "solve"}

// Headers that carry span identity across the loopback hops: the
// generator names the operation and its span to the gateway; the
// RoundTripper names the call span to the backend.
const (
	opHeader   = "X-Bench-Op"
	callHeader = "X-Bench-Call"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. Mark is the instant a handler wrote its response header, which
// is when the wrapped handler's own work (the gateway's routing, the
// backend's Server.Solve) returned and the response encode began.
type span struct {
	Op     int    `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Mark   int64  `json:"mark_ns,omitempty"`

	layer int
	body  bytes.Buffer  // backend response, parsed after the run for duration_ms
	rec   *obs.Recorder // solver stage aggregates of this span's solve
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced runs share the code path.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(op int, parent int64, layer int) *span {
	return &span{Op: op, ID: t.next.Add(1), Parent: parent, layer: layer, Layer: layerNames[layer], Start: t.now()}
}

func (t *tracer) finish(s *span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// traceKey carries the current operation and parent span through the
// gateway: its handler passes r.Context() down to the backend calls.
type traceKey struct{}

type traceCtx struct {
	op     int
	parent int64
}

func formatIDs(op int, id int64) string { return strconv.Itoa(op) + "/" + strconv.FormatInt(id, 10) }

func parseIDs(h string) (op int, id int64, ok bool) {
	a, b, found := strings.Cut(h, "/")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.Atoi(a)
	id, err2 := strconv.ParseInt(b, 10, 64)
	return op, id, err1 == nil && err2 == nil
}

// markWriter stamps the span's Mark at the first header or body write
// and optionally keeps a copy of the body.
type markWriter struct {
	http.ResponseWriter
	t   *tracer
	s   *span
	tee *bytes.Buffer
}

func (w *markWriter) stamp() {
	if w.s.Mark == 0 {
		w.s.Mark = w.t.now()
	}
}

func (w *markWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

func (w *markWriter) Write(p []byte) (int, error) {
	w.stamp()
	if w.tee != nil {
		w.tee.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// gatewayHandler wraps the gateway's handler with the gateway span.
func (t *tracer) gatewayHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseIDs(r.Header.Get(opHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := t.begin(op, parent, layerGateway)
		ctx := context.WithValue(r.Context(), traceKey{}, traceCtx{op: op, parent: s.ID})
		next.ServeHTTP(&markWriter{ResponseWriter: w, t: t, s: s}, r.WithContext(ctx))
		t.finish(s)
	})
}

// backendHandler wraps one backend's handler with the backend span and
// attaches an obs.Recorder, so the solver run under Server.Solve reports
// its stage aggregates.
func (t *tracer) backendHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseIDs(r.Header.Get(callHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := t.begin(op, parent, layerBackend)
		s.rec = obs.NewRecorder()
		ctx := obs.WithRecorder(r.Context(), s.rec)
		next.ServeHTTP(&markWriter{ResponseWriter: w, t: t, s: s, tee: &s.body}, r.WithContext(ctx))
		t.finish(s)
	})
}

// transport times each gateway→backend call (primary, hedge or
// failover) until its response body is closed.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, ok := req.Context().Value(traceKey{}).(traceCtx)
	if !ok {
		return tr.base.RoundTrip(req)
	}
	s := tr.t.begin(tc.op, tc.parent, layerCall)
	req = req.Clone(req.Context())
	req.Header.Set(callHeader, formatIDs(tc.op, s.ID))
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		tr.t.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.t.finish(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// solveChildren adds, under every backend span whose response carries
// duration_ms, the solve-path span it implies: it ends at the span's
// Mark (Server.Solve returned and the encode began) and lasts
// duration_ms.
func solveChildren(t *tracer, spans []*span) []*span {
	out := spans
	for _, s := range spans {
		if s.layer != layerBackend || s.Mark == 0 {
			continue
		}
		var resp struct {
			DurationMS *float64 `json:"duration_ms"`
		}
		if json.Unmarshal(s.body.Bytes(), &resp) != nil || resp.DurationMS == nil {
			continue
		}
		start := s.Mark - int64(*resp.DurationMS*float64(time.Millisecond))
		out = append(out, &span{
			Op: s.Op, ID: t.next.Add(1), Parent: s.ID, layer: layerSolve, Layer: layerNames[layerSolve],
			Start: max(start, s.Start), End: s.Mark,
		})
	}
	return out
}

// layerNS holds one nanosecond figure per layer.
type layerNS [numLayers]int64

func (l layerNS) sum() int64 {
	var s int64
	for _, v := range l {
		s += v
	}
	return s
}

// selfTimes splits one operation's spans into per-layer self time. Wall
// gives each instant of the root span to the deepest layer with a span
// active at that instant, so it sums to the root's duration exactly, with
// a span's share equal to its duration minus the union of its children
// when children nest. Work is each span's duration minus the union of its
// own children, summed per layer: where siblings overlap (a hedge beside
// its primary) work exceeds wall.
func selfTimes(spans []*span) (root *span, wall, work layerNS) {
	for _, s := range spans {
		if s.layer == layerGen && (root == nil || s.Start < root.Start) {
			root = s
		}
	}
	if root == nil {
		return nil, wall, work
	}
	clip := func(x int64) int64 { return min(max(x, root.Start), root.End) }
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, clip(s.Start), clip(s.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if b == a {
			continue
		}
		deepest := -1
		for _, s := range spans {
			if s.Start <= a && s.End >= b && s.layer > deepest {
				deepest = s.layer
			}
		}
		if deepest >= 0 {
			wall[deepest] += b - a
		}
	}
	children := map[int64][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		work[s.layer] += s.dur() - unionWithin(children[s.ID], s.Start, s.End)
	}
	return root, wall, work
}

// unionWithin is the length of the union of the spans' intervals,
// clipped to [lo, hi].
func unionWithin(spans []*span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// byOp groups spans by operation.
func byOp(spans []*span) map[int][]*span {
	out := map[int][]*span{}
	for _, s := range spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// stageTotals sums the solver stage aggregates of every recorder.
func stageTotals(spans []*span) map[string]obs.StageStat {
	out := map[string]obs.StageStat{}
	for _, s := range spans {
		for _, st := range s.rec.Snapshot() {
			acc := out[st.Stage]
			acc.Stage = st.Stage
			acc.Calls += st.Calls
			acc.Total += st.Total
			acc.Size += st.Size
			acc.Max = max(acc.Max, st.Max)
			out[st.Stage] = acc
		}
	}
	return out
}
