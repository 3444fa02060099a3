package main

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specwise/internal/core"
	"specwise/internal/jobs"
	"specwise/internal/problem"
)

// The probes in this file measure each layer from outside, through the
// public seams the program already has: the Problem.Eval/Constraints
// callbacks, the jobs.Store interface and the worker's http.Client.

// evalProbe counts and times the simulator calls behind the problems it
// wraps. Counting is always on (it is an atomic add, and paper-flow's
// simulations metric needs it); per-call timing only when traced.
type evalProbe struct {
	timed  bool
	evals  atomic.Int64
	cevals atomic.Int64
	busy   atomic.Int64 // nanoseconds inside Eval, summed over goroutines

	mu       sync.Mutex
	durs     []float64 // per Eval call, microseconds (timed only)
	problems []*core.Problem
}

// wrap returns a copy of p whose Eval and Constraints go through the
// probe. p itself is kept for its simulator counters (timed only).
func (ep *evalProbe) wrap(p *core.Problem) *core.Problem {
	q := *p
	eval := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		ep.evals.Add(1)
		if !ep.timed {
			return eval(d, s, theta)
		}
		t0 := time.Now()
		v, err := eval(d, s, theta)
		dt := time.Since(t0)
		ep.busy.Add(int64(dt))
		ep.mu.Lock()
		ep.durs = append(ep.durs, float64(dt)/float64(time.Microsecond))
		ep.mu.Unlock()
		return v, err
	}
	if p.Constraints != nil {
		cons := p.Constraints
		q.Constraints = func(d []float64) ([]float64, error) {
			ep.cevals.Add(1)
			return cons(d)
		}
	}
	if ep.timed {
		ep.mu.Lock()
		ep.problems = append(ep.problems, p)
		ep.mu.Unlock()
	}
	return &q
}

// simStats sums the simulator-side counters of every wrapped problem.
func (ep *evalProbe) simStats() problem.SimCounters {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	var c problem.SimCounters
	for _, p := range ep.problems {
		if p.SimStats != nil {
			c.Add(p.SimStats())
		}
	}
	return c
}

// layerMetrics fills the spice and linalg metrics, dividing counts by
// units (passes, batches or requests).
func (ep *evalProbe) layerMetrics(m map[string]float64, units float64) {
	ep.mu.Lock()
	durs := append([]float64(nil), ep.durs...)
	ep.mu.Unlock()
	sc := ep.simStats()
	evals := float64(ep.evals.Load())
	m["spice.evals"] = evals / units
	m["spice.constraint_evals"] = float64(ep.cevals.Load()) / units
	m["spice.eval_us_p50"] = median(durs)
	m["spice.eval_busy_s"] = time.Duration(ep.busy.Load()).Seconds() / units
	m["spice.dc_solve_s"] = time.Duration(sc.DCSolveNanos).Seconds() / units
	m["spice.ac_solve_s"] = time.Duration(sc.ACSolveNanos).Seconds() / units
	solves := evals + float64(ep.cevals.Load())
	if solves > 0 {
		m["spice.newton_iters_per_eval"] = float64(sc.NewtonIters) / solves
	}
	m["spice.warm_converged_pct"] = pct(float64(sc.WarmConverged), float64(sc.WarmStarts))
	m["spice.fallback_pct"] = pct(float64(sc.Fallbacks), float64(sc.WarmStarts))
	m["linalg.factorizations"] = float64(sc.Factorizations) / units
	m["linalg.solves"] = float64(sc.Solves) / units
	if sc.MatrixNNZ > 0 {
		m["linalg.fill_ratio"] = float64(sc.FactorNNZ) / float64(sc.MatrixNNZ)
	}
}

// spanProblem returns a copy of p whose every Eval is a span under
// parent, so the replay can attribute time to the simulator beneath a
// layer call.
func spanProblem(p *core.Problem, tr *Tracer, parent int, req string) *core.Problem {
	q := *p
	eval := p.Eval
	q.Eval = func(d, s, theta []float64) ([]float64, error) {
		id := tr.begin("spice.eval", req, parent)
		v, err := eval(d, s, theta)
		tr.end(id, 1)
		return v, err
	}
	return &q
}

// storeStats collects what the storeProbes of a run saw.
type storeStats struct {
	mu      sync.Mutex
	appends []float64 // microseconds
	busy    time.Duration
	bytes   int64 // written, snapshots included
}

// storeProbe times every journal append of the jobs.Store it wraps.
type storeProbe struct {
	jobs.Store
	stats *storeStats
	last  int64 // the store's byte count after the previous append
}

func newStoreProbe(s jobs.Store, stats *storeStats) *storeProbe {
	return &storeProbe{Store: s, stats: stats, last: s.Stats().Bytes}
}

// Append is serialized by the manager's lock, so last needs no guard.
func (s *storeProbe) Append(rec *jobs.Record) error {
	t0 := time.Now()
	err := s.Store.Append(rec)
	dt := time.Since(t0)
	b := s.Store.Stats().Bytes
	s.stats.mu.Lock()
	s.stats.appends = append(s.stats.appends, float64(dt)/float64(time.Microsecond))
	s.stats.busy += dt
	s.stats.bytes += b - s.last
	s.stats.mu.Unlock()
	s.last = b
	return err
}

// fill sets the store metrics for the given number of journaled jobs
// over wall seconds.
func (st *storeStats) fill(m map[string]float64, jobs, wall float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m["store.appends_per_job"] = float64(len(st.appends)) / jobs
	m["store.bytes_per_job"] = float64(st.bytes) / jobs
	m["store.append_us_p50"] = median(st.appends)
	m["store.append_us_p99"], _ = tail(st.appends, 99)
	m["store.busy_pct"] = pct(st.busy.Seconds(), wall)
}

// callLog collects client-side timings (ms) and sizes (KiB) of API
// calls, by series name.
type callLog struct {
	mu sync.Mutex
	v  map[string][]float64
}

func (c *callLog) add(series string, x float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.v == nil {
		c.v = make(map[string][]float64)
	}
	c.v[series] = append(c.v[series], x)
}

func (c *callLog) get(series string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.v[series]...)
}

// fillServer sets the server metrics from the "submit", "status",
// "result", "result_kb", "sse", "scrape" and "scrape_kb" series.
func (c *callLog) fillServer(m map[string]float64) {
	m["server.submit_ms_p50"] = median(c.get("submit"))
	m["server.submit_ms_p95"], _ = tail(c.get("submit"), 95)
	m["server.status_ms_p50"] = median(c.get("status"))
	m["server.result_ms_p50"] = median(c.get("result"))
	m["server.result_kb_p50"] = median(c.get("result_kb"))
	m["server.sse_first_event_ms"] = median(c.get("sse"))
	m["server.metrics_scrape_ms"] = median(c.get("scrape"))
	m["server.metrics_kb"] = median(c.get("scrape_kb"))
}

// rtCall is one worker-protocol HTTP call as the worker's client saw it.
type rtCall struct {
	worker     string
	kind       string // claim, heartbeat, result, fail
	status     int
	start, end time.Time
	reqBytes   int64
}

// rtProbe is the RoundTripper on a pull-worker's http.Client: it times
// and classifies every lease-protocol call.
type rtProbe struct {
	base   http.RoundTripper
	worker string
	tr     *Tracer
	log    *rtLog
}

// rtLog collects the calls of every worker of a run.
type rtLog struct {
	mu    sync.Mutex
	calls []rtCall
}

func (p *rtProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
	job := ""
	if kind != "claim" {
		job = strings.TrimPrefix(req.URL.Path, "/v1/worker/jobs/")
		job = job[:strings.IndexByte(job, '/')]
	}
	span := p.tr.begin("worker."+kind, job, -1)
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	end := time.Now()
	p.tr.end(span, 0)
	c := rtCall{worker: p.worker, kind: kind, start: start, end: end, reqBytes: req.ContentLength}
	if err == nil {
		c.status = resp.StatusCode
	}
	p.log.mu.Lock()
	p.log.calls = append(p.log.calls, c)
	p.log.mu.Unlock()
	return resp, err
}

// CloseIdleConnections lets worker.Run drop its keep-alive connections
// on exit through the probe.
func (p *rtProbe) CloseIdleConnections() {
	if ci, ok := p.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// runtimeSampler tracks the heap and goroutine peaks of the process.
type runtimeSampler struct {
	stop, done chan struct{}
	ms0        runtime.MemStats

	mu    sync.Mutex
	times []time.Time
	goals []float64 // GC heap goal in bytes, one per sample
	peakG uint64
}

func startRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&s.ms0)
	// The heap is read as the GC's heap goal, the size the runtime lets
	// the heap grow to before it collects (twice the live heap at the
	// last collection), so a reading does not depend on where between two
	// collections a sample lands.
	samples := []metrics.Sample{
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	read := func() {
		metrics.Read(samples)
		s.mu.Lock()
		s.times = append(s.times, time.Now())
		s.goals = append(s.goals, float64(samples[0].Value.Uint64()))
		s.peakG = max(s.peakG, samples[1].Value.Uint64())
		s.mu.Unlock()
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// heapPeak returns, in MiB, the 99th percentile of the heap goal over
// the samples taken between from and to: the level the heap reaches in
// the busiest 1 % of that time, which one short spike cannot move.
func (s *runtimeSampler) heapPeak(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	for i, t := range s.times {
		if !t.Before(from) && !t.After(to) {
			in = append(in, s.goals[i])
		}
	}
	return quantile(in, 0.99) / (1 << 20)
}

// finish stops sampling and fills the runtime metrics; peak_heap_mb
// covers the whole run unless the workload set it.
func (s *runtimeSampler) finish(m map[string]float64) {
	close(s.stop)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if _, ok := m["peak_heap_mb"]; !ok {
		m["peak_heap_mb"] = s.heapPeak(s.times[0], s.times[len(s.times)-1])
	}
	m["runtime.alloc_mb"] = float64(ms.TotalAlloc-s.ms0.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(ms.NumGC - s.ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-s.ms0.PauseTotalNs) / 1e6
	m["runtime.goroutines_peak"] = float64(s.peakG)
}
