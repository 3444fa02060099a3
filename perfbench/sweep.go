package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"specwise"
	"specwise/internal/jobs"
	"specwise/internal/report"
	"specwise/internal/worker"
)

// The sweep-remote settings: BenchmarkSweepOTA16's members, drained by
// two pull-workers. The short lease makes the workers heartbeat during
// a member's run.
const (
	sweepMembers  = 16
	sweepWorkers  = 2
	sweepPoll     = 20 * time.Millisecond
	sweepLeaseTTL = 1500 * time.Millisecond
	sweepSignoff  = 100 // sign-off verification samples per member
	// sweepMinBatches is how many batches every run makes, however long
	// they take: seven batches are 112 sign-offs, enough for their p90.
	sweepMinBatches = 7
)

// sweepRequests builds the 16-seed OTA sweep of one run: member seeds
// and the pinned worst-case seed all come from the run seed.
func sweepRequests(seed uint64) []jobs.Request {
	r := rngFor(seed, streamSweep)
	wc := r.Uint64()
	reqs := make([]jobs.Request, sweepMembers)
	for i := range reqs {
		reqs[i] = jobs.Request{
			Kind:    jobs.KindOptimize,
			Circuit: "ota",
			Options: jobs.RunOptions{
				ModelSamples:  2000,
				VerifySamples: 50,
				MaxIterations: 1,
				Seed:          jobs.Seed(r.Uint64()),
				WCSeed:        jobs.Seed(wc),
			},
		}
	}
	return reqs
}

// remote is a -remote-only daemon, journaling to a durable store, with
// its in-process pull-workers.
type remote struct {
	*daemon
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   []error
}

// startRemote brings up the daemon and the workers and returns once
// every worker has made its first claim. probe and stats are nil when
// untraced.
func startRemote(log *rtLog, tr *Tracer, probe *evalProbe, stats *storeStats) (*remote, error) {
	d, err := openDurable("sweep", jobs.Config{RemoteOnly: true, LeaseTTL: sweepLeaseTTL}, stats)
	if err != nil {
		return nil, err
	}
	rm := &remote{daemon: d, errs: make([]error, sweepWorkers)}
	ctx, cancel := context.WithCancel(context.Background())
	rm.cancel = cancel
	for w := 0; w < sweepWorkers; w++ {
		wc := worker.Config{
			Server:          d.url,
			Name:            fmt.Sprintf("w%d", w),
			Poll:            sweepPoll,
			SharedEvalCache: true,
			Client: &http.Client{
				Transport: &rtProbe{base: &http.Transport{}, worker: fmt.Sprintf("w%d", w), tr: tr, log: log},
				Timeout:   30 * time.Second,
			},
		}
		if probe != nil {
			wc.Resolve = probedResolver(probe)
		}
		rm.wg.Add(1)
		go func(w int) {
			defer rm.wg.Done()
			if err := worker.Run(ctx, wc); err != nil && ctx.Err() == nil {
				rm.errs[w] = err
			}
		}(w)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		log.mu.Lock()
		ready := make(map[string]bool)
		for _, c := range log.calls {
			if c.kind == "claim" && c.status != 0 {
				ready[c.worker] = true
			}
		}
		log.mu.Unlock()
		if len(ready) == sweepWorkers {
			return rm, nil
		}
		if time.Now().After(deadline) {
			rm.close()
			return nil, fmt.Errorf("workers did not claim within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (rm *remote) close() {
	rm.cancel()
	rm.wg.Wait()
	rm.daemon.close()
}

// runSweepRemote submits the sweep as one batch to a fresh remote-only
// daemon and two fresh pull-workers, again and again for the window:
// every batch does the same work from a cold start.
func runSweepRemote(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	reqs := sweepRequests(cfg.seed)
	body, err := json.Marshal(map[string]any{"jobs": reqs})
	if err != nil {
		return nil, err
	}

	// The library reference for one member, chosen by the seed.
	refIdx := int(cfg.seed % sweepMembers)
	ota := specwise.OTA()
	refRes, err := specwise.Optimize(ota, reqs[refIdx].Options.Core())
	if err != nil {
		return nil, fmt.Errorf("library reference: %w", err)
	}
	ref := report.JSONResult(refRes)
	ref.StripEffortVolatile()
	want, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	signoffSeed := rngFor(cfg.seed, streamSignoff).Uint64()

	var probe *evalProbe
	var stats *storeStats
	var calls *callLog
	if cfg.traced() {
		probe, stats, calls = &evalProbe{timed: true}, &storeStats{}, &callLog{}
	}
	var setups, walls, sims, runs, waits, verifyMS, yields, backlogs []float64
	// Set-up takes a few milliseconds; besides the one before every
	// batch, four more are timed up front so the median has enough
	// samples.
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		rm, err := startRemote(&rtLog{}, nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rm.close()
	}
	var cross, misses int64
	var batchWall time.Duration
	var leaseCalls []rtCall
	start := time.Now()
	for b := 0; b < sweepMinBatches || time.Since(start)+time.Duration(walls[b-1]*float64(time.Second)) <= cfg.window; b++ {
		log := &rtLog{}
		t0 := time.Now()
		rm, err := startRemote(log, cfg.tr, probe, stats)
		if err != nil {
			return nil, fmt.Errorf("batch %d set-up: %w", b, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st, err := runBatch(cfg, rm, body, calls)
		rm.close()
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		for _, e := range rm.errs {
			out.check(e == nil, "batch %d: worker exited: %v", b, e)
		}

		out.attempted += len(st.members)
		wall := st.end.Sub(st.submit)
		walls = append(walls, wall.Seconds())
		batchWall += wall
		sims = append(sims, float64(st.status.Effort.Simulations))
		cross += st.status.Effort.EvalCacheCrossHits
		misses += st.status.Effort.EvalCacheMisses
		out.check(st.status.State == jobs.StateDone, "batch %d ended %s", b, st.status.State)
		backlogs = append(backlogs, float64(maxBacklog(st.status.Members)))
		var bYields []float64
		for i, mem := range st.status.Members {
			res := st.members[i]
			if mem.State != jobs.StateDone || res == nil {
				out.failed++
				out.check(false, "batch %d member %d (%s) ended %s %s", b, i, mem.ID, mem.State, mem.Error)
				continue
			}
			if mem.StartedAt != nil {
				runs = append(runs, mem.FinishedAt.Sub(*mem.StartedAt).Seconds())
				waits = append(waits, mem.StartedAt.Sub(mem.EnqueuedAt).Seconds())
			}
			last := res.Iterations[len(res.Iterations)-1]
			bYields = append(bYields, *last.MCYield)

			// Sign-off: an independent verification of the member's final
			// design must agree with the yield the sweep reported.
			d := make([]float64, len(res.FinalDesign))
			for k, v := range res.FinalDesign {
				d[k] = v.Value
			}
			t := time.Now()
			mc, err := specwise.VerifyYield(ota, d, sweepSignoff, signoffSeed)
			if err != nil {
				return nil, fmt.Errorf("sign-off: %w", err)
			}
			verifyMS = append(verifyMS, ms(time.Since(t)))
			out.check(yieldsAgree(*last.MCYield, reqs[i].Options.VerifySamples, mc.Estimate.Yield(), sweepSignoff),
				"batch %d member %d: sign-off yield %.3f disagrees with the sweep's %.3f", b, i, mc.Estimate.Yield(), *last.MCYield)

			if i == refIdx {
				got := *res
				got.StripEffortVolatile()
				blob, err := json.Marshal(&got)
				if err != nil {
					return nil, err
				}
				out.check(bytes.Equal(blob, want), "batch %d member %d differs from a library Optimize of the same request", b, i)
			}
		}
		yields = append(yields, minOf(bYields))
		log.mu.Lock()
		for _, c := range log.calls {
			if !c.end.Before(st.submit) && !c.start.After(st.end) {
				leaseCalls = append(leaseCalls, c)
			}
		}
		log.mu.Unlock()
		fmt.Fprintf(os.Stderr, "batch %d: %.2fs, %d simulations, %d cross-job hits, lowest yield %.3f\n",
			b, wall.Seconds(), st.status.Effort.Simulations, st.status.Effort.EvalCacheCrossHits, minOf(bYields))
	}

	units := float64(len(walls))
	out.units = units
	m := out.m
	m["setup_s"] = median(setups)
	m["run_wall_s"] = median(walls)
	m["simulations"] = median(sims)
	m["final_yield_pct"] = 100 * median(yields)
	// Every run makes at least sweepMinBatches batches: enough for p90.
	fillVerify(m, verifyMS, len(verifyMS), 90)
	m["optimize_p50_s"] = median(runs)
	m["completed_pct"] = pct(float64(out.attempted-out.failed), float64(out.attempted))
	m["_batches"] = units

	m["evalcache.cross_hit_pct"] = pct(float64(cross), float64(cross+misses))
	m["jobs.optimize_wait_s_p50"] = median(waits)
	m["jobs.optimize_run_s_p50"] = median(runs)
	m["jobs.backlog_max"] = median(backlogs)
	workerMetrics(m, leaseCalls, batchWall, units)
	if cfg.traced() {
		probe.layerMetrics(m, units)
		stats.fill(m, units*sweepMembers, batchWall.Seconds())
		calls.fillServer(m)
	}
	return out, nil
}

// batchRun is what one batch returned.
type batchRun struct {
	submit, end time.Time
	status      jobs.BatchStatus
	members     []*report.Result // by member index; nil when not done
}

// runBatch submits the sweep, polls it to its terminal state and fetches
// every member's result. A traced run (calls non-nil) also times the
// first SSE event of one member and one /metrics scrape.
func runBatch(cfg runConfig, rm *remote, body []byte, calls *callLog) (*batchRun, error) {
	br := &batchRun{submit: time.Now()}
	code, blob, err := rm.timed(calls, "submit", http.MethodPost, "/v1/batches", body)
	if err != nil || code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d, %v: %s", code, err, blob)
	}
	var st jobs.BatchStatus
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, err
	}
	root := cfg.tr.begin("batch", st.ID, -1)
	if calls != nil && len(st.Members) > 0 {
		if t, err := firstEvent(rm.daemon, st.Members[0].ID); err == nil {
			calls.add("sse", ms(t))
		}
	}
	deadline := time.Now().Add(120 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("batch %s not terminal after 120s", st.ID)
		}
		time.Sleep(sweepPoll)
		code, blob, err := rm.timed(calls, "status", http.MethodGet, "/v1/batches/"+st.ID, nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("batch status: %d, %v", code, err)
		}
		st = jobs.BatchStatus{}
		if err := json.Unmarshal(blob, &st); err != nil {
			return nil, err
		}
	}
	br.end = br.submit
	for _, mem := range st.Members {
		if mem.FinishedAt != nil && mem.FinishedAt.After(br.end) {
			br.end = *mem.FinishedAt
		}
	}
	cfg.tr.end(root, st.Effort.Simulations)
	if calls != nil {
		scrapeMetrics(rm.daemon, calls)
	}
	br.status = st
	br.members = make([]*report.Result, len(st.Members))
	for i, mem := range st.Members {
		if mem.StartedAt != nil && mem.FinishedAt != nil {
			cfg.tr.add("jobs.wait", mem.ID, root, mem.EnqueuedAt, *mem.StartedAt)
			cfg.tr.add("worker.run", mem.ID, root, *mem.StartedAt, *mem.FinishedAt)
		}
		if mem.State != jobs.StateDone {
			continue
		}
		code, blob, err := rm.timed(calls, "result", http.MethodGet, "/v1/jobs/"+mem.ID+"/result", nil)
		var res jobs.Result
		if err != nil || code != http.StatusOK || json.Unmarshal(blob, &res) != nil || res.Optimization == nil {
			continue
		}
		if calls != nil {
			calls.add("result_kb", float64(len(blob))/1024)
		}
		br.members[i] = res.Optimization
	}
	return br, nil
}

// maxBacklog returns the largest number of jobs that were queued and not
// yet started at one time, from their status timestamps. Jobs that never
// started stay queued to the end; a job that several members fold into
// counts once.
func maxBacklog(members []jobs.Status) int {
	type edge struct {
		t time.Time
		d int
	}
	var edges []edge
	seen := make(map[string]bool)
	for _, mem := range members {
		if seen[mem.ID] {
			continue
		}
		seen[mem.ID] = true
		edges = append(edges, edge{mem.EnqueuedAt, 1})
		if mem.StartedAt != nil {
			edges = append(edges, edge{*mem.StartedAt, -1})
		}
	}
	// At equal times a start comes before an arrival, so a job claimed
	// the instant it arrived never counts as queued.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t.Equal(edges[j].t) {
			return edges[i].d < edges[j].d
		}
		return edges[i].t.Before(edges[j].t)
	})
	depth, most := 0, 0
	for _, e := range edges {
		depth += e.d
		most = max(most, depth)
	}
	return most
}

// workerMetrics derives the pull-worker metrics from the lease-protocol
// calls the workers' RoundTripper saw during the batches.
func workerMetrics(m map[string]float64, calls []rtCall, batchWall time.Duration, units float64) {
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	var claimMS, resultMS, resultKB []float64
	claims, empty, heartbeats := 0, 0, 0
	var busy time.Duration
	leaseStart := make(map[string]time.Time)
	for _, c := range calls {
		switch c.kind {
		case "claim":
			claimMS = append(claimMS, ms(c.end.Sub(c.start)))
			switch c.status {
			case http.StatusOK:
				claims++
				leaseStart[c.worker] = c.end
			case http.StatusNoContent:
				empty++
			}
		case "heartbeat":
			heartbeats++
		case "result":
			resultMS = append(resultMS, ms(c.end.Sub(c.start)))
			resultKB = append(resultKB, float64(c.reqBytes)/1024)
			if t, ok := leaseStart[c.worker]; ok {
				busy += c.end.Sub(t)
				delete(leaseStart, c.worker)
			}
		}
	}
	m["worker.claims"] = float64(claims) / units
	m["worker.empty_claim_pct"] = pct(float64(empty), float64(claims+empty))
	m["worker.claim_ms_p50"] = median(claimMS)
	m["worker.heartbeats"] = float64(heartbeats) / units
	m["worker.result_post_ms_p50"] = median(resultMS)
	m["worker.result_kb_p50"] = median(resultKB)
	m["worker.idle_pct"] = 100 - pct(busy.Seconds(), sweepWorkers*batchWall.Seconds())
}
