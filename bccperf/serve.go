package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/server"
)

// fleet is two in-process backends behind a gateway, each on its own
// loopback listener. Everything runs at the shipped defaults of bccgate
// and bccserver; the benchmark sets only addresses and backend IDs, plus
// the tracing wrappers in a traced run.
type fleet struct {
	servers  []*server.Server
	https    []*http.Server
	cl       *cluster.Cluster
	gwURL    string
	backends []string
	client   *http.Client // the load generator's own transport
	wg       sync.WaitGroup
}

func listen(h http.Handler, f *fleet) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), hs, nil
}

func startFleet(tr *tracer) (*fleet, error) {
	f := &fleet{}
	for _, id := range []string{"bench-a", "bench-b"} {
		srv := server.New(server.Config{BackendID: id})
		f.servers = append(f.servers, srv)
		h := srv.Handler()
		if tr != nil {
			h = tr.backendHandler(h)
		}
		url, hs, err := listen(h, f)
		if err != nil {
			f.close()
			return nil, err
		}
		f.https = append(f.https, hs)
		f.backends = append(f.backends, url)
	}
	cfg := cluster.Config{Backends: f.backends}
	if tr != nil {
		cfg.HTTPClient = &http.Client{Transport: &transport{t: tr, base: http.DefaultTransport}}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.cl = cl
	var h http.Handler = cluster.NewGateway(cl, cluster.GatewayConfig{}).Handler()
	if tr != nil {
		h = tr.gatewayHandler(h)
	}
	url, hs, err := listen(h, f)
	if err != nil {
		f.close()
		return nil, err
	}
	f.https = append(f.https, hs)
	f.gwURL = url
	f.client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	return f, nil
}

// close stops the listeners, the probe loop and the worker pools and
// waits for every serving goroutine to return.
func (f *fleet) close() {
	for _, hs := range f.https {
		_ = hs.Close()
	}
	f.wg.Wait()
	if f.cl != nil {
		f.cl.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// post sends one solve body to the gateway. op >= 0 tags it for tracing
// under the generator span parent.
func (f *fleet) post(body []byte, op int, parent int64) (code int, resp []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, f.gwURL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, formatIDs(op, parent))
	}
	r, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, resp, err
}

// solveOnce posts body and decodes a 200 answer.
func (f *fleet) solveOnce(body []byte) (*api.SolveResponse, []byte, error) {
	code, raw, err := f.post(body, -1, 0)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("gateway answered %d: %s", code, bytes.TrimSpace(raw))
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, err
	}
	return &resp, raw, nil
}

// serving is a set-up fleet plus the finished request bodies.
type serving struct {
	f      *fleet
	bodies [][]byte // one per distinct request
	// setupAnswers holds serve-hot's cache-fill answers, which every
	// measured answer to the same request must equal.
	setupAnswers [][]byte
}

// setupServing starts a fleet and brings it to the measured state:
// serve-hot solves each distinct request once so the measured requests
// hit; serve-drift solves the bases and sends their plans as warm_plan.
func setupServing(in *inputs, tr *tracer) (_ *serving, err error) {
	f, err := startFleet(tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	s := &serving{f: f}
	var plans [][][]string
	for _, inst := range in.bases {
		b, err := body(inst, nil)
		if err != nil {
			return nil, err
		}
		resp, _, err := f.solveOnce(b)
		if err != nil {
			return nil, fmt.Errorf("solving drift base: %w", err)
		}
		plan := make([][]string, len(resp.Classifiers))
		for i, c := range resp.Classifiers {
			plan[i] = c.Props
		}
		plans = append(plans, plan)
	}
	for _, r := range in.reqs {
		var warm [][]string
		if r.base >= 0 {
			warm = plans[r.base]
		}
		b, err := body(r.instance, warm)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	if in.w.name == serveHot {
		for _, b := range s.bodies {
			_, raw, err := f.solveOnce(b)
			if err != nil {
				return nil, fmt.Errorf("filling cache: %w", err)
			}
			s.setupAnswers = append(s.setupAnswers, raw)
		}
	}
	return s, nil
}

// opResult is one measured operation. Offsets are from the start of the
// measured phase.
type opResult struct {
	sched, sent, done time.Duration
	req               int
	code              int
	body              []byte
	err               error
}

func (o *opResult) latency() time.Duration { return o.done - o.sched }

// openLoop runs operation i at offset sched[i] after it starts, with at
// most inFlight operations outstanding. An operation due while every
// slot is taken waits for one; that wait shows as sent > sched and, since
// latency is timed from sched, in the operation's latency.
func openLoop(sched []time.Duration, inFlight int, do func(i int)) (sent, done []time.Duration) {
	sent = make([]time.Duration, len(sched))
	done = make([]time.Duration, len(sched))
	slots := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		sent[i] = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
			done[i] = time.Since(start)
			<-slots
		}(i)
	}
	wg.Wait()
	return sent, done
}

// run is the measured phase of serve-hot and serve-drift.
func (s *serving) run(in *inputs, tr *tracer) []opResult {
	ops := make([]opResult, len(in.sched))
	sent, done := openLoop(in.sched, maxInFlight, func(i int) {
		o := &ops[i]
		o.req = in.opReq[i]
		op, parent := -1, int64(0)
		var root *span
		if tr != nil {
			root = tr.begin(i, 0, layerGen)
			op, parent = i, root.ID
		}
		o.code, o.body, o.err = s.f.post(s.bodies[o.req], op, parent)
		if root != nil {
			tr.finish(root)
		}
		if o.err == nil && o.code != http.StatusOK {
			o.err = fmt.Errorf("gateway answered %d: %s", o.code, bytes.TrimSpace(o.body))
		}
	})
	for i := range ops {
		ops[i].sched, ops[i].sent, ops[i].done = in.sched[i], sent[i], done[i]
	}
	return ops
}
