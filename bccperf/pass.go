package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/server"
)

// state is one set-up copy of the system under test.
type state struct {
	in   *inputs
	plan *planning
	srv  *serving
}

// setup generates the inputs and brings the system to its measured
// state; setup_s times exactly this.
func setup(w workload, seed int64, seconds int, tr *tracer) (*state, error) {
	in, err := generate(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	if w.name == solveCold {
		return &state{in: in, plan: setupPlanning(in)}, nil
	}
	srv, err := setupServing(in, tr)
	if err != nil {
		return nil, err
	}
	return &state{in: in, srv: srv}, nil
}

func (s *state) close() {
	if s.srv != nil {
		s.srv.f.close()
	}
}

// statz is the service counters read over HTTP before and after a
// measured phase.
type statz struct {
	gw cluster.GatewayStatz
	be []server.Statz
}

func getJSON(c *http.Client, url string, dst any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func (f *fleet) statz() (statz, error) {
	var s statz
	if err := getJSON(f.client, f.gwURL+"/v1/statz", &s.gw); err != nil {
		return s, err
	}
	for _, b := range f.backends {
		var st server.Statz
		if err := getJSON(f.client, b+"/v1/statz", &st); err != nil {
			return s, err
		}
		s.be = append(s.be, st)
	}
	return s, nil
}

// pass is one measured phase and its verified outcome.
type pass struct {
	w        workload
	in       *inputs
	win      *window
	cold     []coldResult
	ops      []opResult
	before   statz
	after    statz
	spans    []*span
	lat      []float64 // ms per operation, from its scheduled send
	ok       []bool    // answered, verified and within the latency limit
	answered []bool
	failures []string
	resp     []*api.SolveResponse // serving answers, decoded
	bodies   [][]byte             // serving request bodies, by request index
	utility  float64
	ig1      float64
	digest   string
}

// failed counts failed operations: each has exactly one failure entry.
func (p *pass) failed() int { return len(p.failures) }

// measure runs the measured phase on a set-up state and verifies every
// answer outside the timed window.
func measure(st *state, tr *tracer) (*pass, error) {
	p := &pass{w: st.in.w, in: st.in}
	var err error
	if st.srv != nil {
		if p.before, err = st.srv.f.statz(); err != nil {
			return nil, err
		}
	}
	runtime.GC() // start every measured phase from a collected heap
	p.win = openWindow()
	if st.plan != nil {
		p.cold = st.plan.run(tr)
	} else {
		p.ops = st.srv.run(st.in, tr)
	}
	p.win.close()
	if st.srv != nil {
		p.bodies = st.srv.bodies
		if p.after, err = st.srv.f.statz(); err != nil {
			return nil, err
		}
		return p, p.verifyServing(st.srv)
	}
	p.verifyCold(st.plan)
	return p, nil
}

func (p *pass) fail(i int, err error) {
	p.failures = append(p.failures, fmt.Sprintf("op %d: %v", i, err))
}

func (p *pass) verifyCold(pl *planning) {
	n := len(p.cold)
	p.lat, p.ok, p.answered = make([]float64, n), make([]bool, n), make([]bool, n)
	var fps []string
	for i := range p.cold {
		r := &p.cold[i]
		in := pl.instances[i]
		p.lat[i] = ms(r.done - r.start)
		p.answered[i] = r.err == nil
		if err := verifyCold(in, r); err != nil {
			p.fail(i, err)
		} else {
			p.ok[i] = p.lat[i] <= ms(p.w.limit)
		}
		p.utility += r.out.Utility
		p.ig1 += ig1Utility(in)
		fps = append(fps, in.Fingerprint())
	}
	p.digest = p.in.digest(fps)
}

func (p *pass) verifyServing(s *serving) error {
	n := len(p.ops)
	p.lat, p.ok, p.answered = make([]float64, n), make([]bool, n), make([]bool, n)
	p.resp = make([]*api.SolveResponse, n)
	drift := p.w.name == serveDrift
	reqs := make([]*servedRequest, len(s.bodies))
	for i := range reqs {
		r, err := decodeRequest(s.bodies[i], drift)
		if err != nil {
			return fmt.Errorf("decoding request %d: %w", i, err)
		}
		reqs[i] = r
	}
	for i := range p.ops {
		o := &p.ops[i]
		p.lat[i] = ms(o.latency())
		r := reqs[o.req]
		p.ig1 += r.ig1
		if o.err != nil {
			p.fail(i, o.err)
			continue
		}
		p.answered[i] = true
		var want []byte
		if s.setupAnswers != nil {
			want = s.setupAnswers[o.req]
		}
		resp, err := verifyServed(r, o.body, want, drift)
		p.resp[i] = resp
		if resp != nil {
			p.utility += resp.Utility
		}
		if err != nil {
			p.fail(i, err)
			continue
		}
		p.ok[i] = p.lat[i] <= ms(p.w.limit)
	}
	p.digest = p.in.digest(nil)
	return nil
}

// wall is the measured phase's length.
func (p *pass) wall() time.Duration { return p.win.end.Sub(p.win.start) }

func (p *pass) completed() int {
	n := 0
	for _, a := range p.answered {
		if a {
			n++
		}
	}
	return n
}

// lags is each serving operation's lateness: actual minus scheduled send.
func (p *pass) lags() []float64 {
	var out []float64
	for _, o := range p.ops {
		out = append(out, ms(o.sent-o.sched))
	}
	return out
}

// endToEnd computes every end-to-end metric but setup_s.
func (p *pass) endToEnd() map[string]metric {
	tailV, _ := tail(p.lat)
	okN := 0
	for _, ok := range p.ok {
		if ok {
			okN++
		}
	}
	done := p.completed()
	return map[string]metric{
		"latency_p50_ms":   {median(p.lat), "ms"},
		"latency_tail_ms":  {tailV, "ms"},
		"throughput_ops_s": {ratio(float64(done), p.wall().Seconds()), "ops/s"},
		"slo_ok_ratio":     {ratio(float64(okN), float64(len(p.lat))), "ratio"},
		"cpu_ms_per_op":    {ratio(ms(p.win.cpu()), float64(done)), "ms"},
		"maxrss_mb":        {maxRSSMB(), "MB"},
		"utility_vs_ig1":   {ratio(p.utility, p.ig1), "ratio"},
	}
}

// record fills the run record's fields that come from this pass.
func (p *pass) record() *record {
	_, pct := tail(p.lat)
	lags := p.lags()
	lagMax := 0.0
	for _, l := range lags {
		lagMax = max(lagMax, l)
	}
	failed := p.failed()
	classes := make([]string, len(p.lat))
	for i := range classes {
		if p.ops != nil {
			classes[i] = p.in.reqs[p.ops[i].req].class
		} else {
			classes[i] = p.in.cold[i].class
		}
	}
	return &record{
		Counters:    p.counters(),
		OpLatencyMS: p.lat, OpClass: classes,
		Workload: p.w.name, StealShare: p.win.steal(), InputsDigest: p.digest,
		TailPercentile: pct, TailSamples: len(p.lat),
		LagP50MS: median(lags), LagMaxMS: lagMax,
		Failures: p.failures,
		Result:   result{Correct: failed == 0, Attempted: len(p.lat), Failed: failed},
	}
}

// counters are the service counters' changes over the measured phase,
// kept in every run's record to explain outliers.
func (p *pass) counters() map[string]uint64 {
	if p.after.be == nil {
		return nil
	}
	a, b := &p.before.gw.Cluster, &p.after.gw.Cluster
	c := map[string]uint64{
		"gateway_affinity_picks": b.AffinityPicks - a.AffinityPicks,
		"gateway_fallback_picks": b.FallbackPicks - a.FallbackPicks,
		"gateway_hedges":         b.Hedges - a.Hedges,
		"gateway_hedge_wins":     b.HedgeWins - a.HedgeWins,
		"gateway_failovers":      b.Failovers - a.Failovers,
		"gateway_retries":        b.Client.Retries - a.Client.Retries,
	}
	for i := range p.after.be {
		x, y := &p.before.be[i], &p.after.be[i]
		c["backend_requests"] += y.Requests - x.Requests
		c["backend_solves"] += y.Solves - x.Solves
		c["backend_rejected"] += y.Rejected - x.Rejected
		c["cache_hits"] += y.Cache.Hits - x.Cache.Hits
		c["cache_misses"] += y.Cache.Misses - x.Cache.Misses
		c["cache_shared"] += y.Cache.SharedWaits - x.Cache.SharedWaits
		c["cache_stored"] += y.Cache.Stored - x.Cache.Stored
		c["warm_solves"] += y.Incr.WarmRequest + y.Incr.WarmSibling - x.Incr.WarmRequest - x.Incr.WarmSibling
		c["floor_fallbacks"] += y.Incr.FloorFallbacks - x.Incr.FloorFallbacks
	}
	return c
}
