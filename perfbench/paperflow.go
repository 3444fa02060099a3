package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"specwise"
	"specwise/internal/coord"
	"specwise/internal/core"
	"specwise/internal/linmodel"
	"specwise/internal/rng"
	"specwise/internal/wcd"
)

// paperSeed is the repository's default seed; at it the Table-1 leg
// must reproduce the simulation count and yield BENCH_core.json and
// EXPERIMENTS.md record.
const (
	paperSeed        = 20010618
	paperTable1Sims  = 19556
	paperTable1Yield = 0.92
)

// The paper-flow settings: the Table-1 bench configuration of
// bench_test.go for the folded cascode and the Miller opamp, and
// BenchmarkBackendsOTA's for the cem leg. Sign-off verifications use
// the Table-1 verification sample count.
const (
	pfModelSamples  = 3000
	pfVerifySamples = 150
	pfIterations    = 3
	signoffSamples  = 150
	// signoffs is how many independent sign-off verifications each
	// optimized design gets.
	signoffs = 2
	// pfLegs is how many optimizations a pass runs.
	pfLegs = 3
	// pfSeeds is how many sub-seeds the passes of a run cycle through:
	// the optimizer's outcome depends on its seed, so a run averages over
	// five of them, and every run makes at least one pass on each.
	pfSeeds = 5
	// pfSetups is how many set-ups are timed before each pass.
	pfSetups = 40
)

// verifySLO is the latency limit of verify_slo_pct on every workload.
const verifySLO = 150 * time.Millisecond

// progressLog records the Options.Progress events of one optimizer call.
type progressLog struct {
	mu     sync.Mutex
	times  []time.Time
	stages []string
}

func (pl *progressLog) hook(ev core.ProgressEvent) {
	pl.mu.Lock()
	pl.times = append(pl.times, time.Now())
	pl.stages = append(pl.stages, ev.Stage)
	pl.mu.Unlock()
}

// cycleStats accumulates optimizer cycles (non-initial progress events)
// and the time between successive events.
type cycleStats struct {
	accepted, rejected int
	gaps               []float64
}

func (cs *cycleStats) add(times []time.Time, stages []string) {
	for i, st := range stages {
		switch st {
		case "accepted":
			cs.accepted++
		case "rejected":
			cs.rejected++
		}
		if i > 0 {
			cs.gaps = append(cs.gaps, times[i].Sub(times[i-1]).Seconds())
		}
	}
}

func (cs *cycleStats) fill(m map[string]float64, units float64) {
	cycles := float64(cs.accepted + cs.rejected)
	m["core.cycles"] = cycles / units
	m["core.accept_pct"] = pct(float64(cs.accepted), cycles)
	m["core.cycle_s_p50"] = median(cs.gaps)
}

// yieldsAgree reports whether two Monte-Carlo yield estimates of the
// same design (y1 from n1 samples, y2 from n2) are consistent: their
// difference stays within 4.5 pooled standard errors, a bound a correct
// program crosses about once in 150 000 comparisons. Identical
// estimates always agree.
func yieldsAgree(y1 float64, n1 int, y2 float64, n2 int) bool {
	p := (y1*float64(n1) + y2*float64(n2)) / float64(n1+n2)
	se := math.Sqrt(p * (1 - p) * (1/float64(n1) + 1/float64(n2)))
	return math.Abs(y1-y2) <= 4.5*se+1e-12
}

func finalYield(r *core.Result) float64 { return r.Iterations[len(r.Iterations)-1].MCYield }

// pfPass is what one paper-flow pass measured.
type pfPass struct {
	heap                    float64 // MiB, see runtimeSampler.heapPeak
	wall                    time.Duration
	sims                    int64
	table1Sims              int64
	yields                  []float64   // final yields of the fc, miller and cem runs
	optimize                [][]float64 // Optimize call in s, by leg
	feasguided, cem, mismat time.Duration
	verify                  [][]float64 // sign-off latencies in ms, by leg
	hitRate                 [2]int64    // evaluation-cache hits, misses
}

// runPaperFlow is one client in a closed loop through the library: the
// paper's Fig.-6 flow as Tables 5, 1 and 6 run it, plus a cem run on the
// OTA and an independent sign-off verification of every optimized
// design. The passes cycle through pfSeeds sub-seeds; a pass on a
// sub-seed seen before does the same work again, and its simulation
// count must repeat exactly.
func runPaperFlow(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	seed := cfg.seed

	// Set-up: build the three problems and evaluate each once at its
	// nominal point, which finishes the simulator's lazy set-up
	// (warm-start reference point, symbolic factorization). It takes about
	// a millisecond, and so short a timing swings with the machine's speed
	// from moment to moment, so it is repeated pfSetups times before every
	// pass, across the whole run, and reported as the median.
	var setups []float64
	setUp := func() ([3]*core.Problem, error) {
		t0 := time.Now()
		ps := [3]*core.Problem{specwise.FoldedCascode(), specwise.Miller(), specwise.OTA()}
		for _, p := range ps {
			if _, err := p.Eval(p.InitialDesign(), make([]float64, p.NumStat()), p.NominalTheta()); err != nil {
				return ps, fmt.Errorf("set-up evaluation of %s: %w", p.Name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		return ps, nil
	}
	raw, err := setUp()
	if err != nil {
		return nil, err
	}
	probe := &evalProbe{timed: cfg.traced()}
	fc, miller, ota := probe.wrap(raw[0]), probe.wrap(raw[1]), probe.wrap(raw[2])
	var signoffSeeds [signoffs]uint64
	for i, r := 0, rngFor(seed, streamSignoff); i < signoffs; i++ {
		signoffSeeds[i] = r.Uint64()
	}
	subSeeds := paperSubSeeds(seed)

	var passes []pfPass
	var cycles cycleStats
	var longest time.Duration
	start := time.Now()
	for k := 0; k < pfSeeds || time.Since(start)+longest <= cfg.window; k++ {
		for i := 0; i < pfSetups; i++ {
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
		req := fmt.Sprintf("pass-%d", k)
		seed := subSeeds[k%pfSeeds]
		pass := pfPass{}
		t0 := time.Now()
		root := cfg.tr.begin("pass", req, -1)
		evals0 := probe.evals.Load()
		// call runs one library call as a span. A call that fails counts
		// as failed and fails the run's checks; the pass goes on with the
		// calls that do not need its result.
		call := func(name string, fn func() error) bool {
			out.attempted++
			id := cfg.tr.begin(name, req, root)
			e0 := probe.evals.Load()
			err := fn()
			cfg.tr.end(id, probe.evals.Load()-e0)
			if err != nil {
				out.failed++
				out.check(false, "%s %s: %v", req, name, err)
			}
			return err == nil
		}

		// (1) Table 5: mismatch analysis at the initial folded cascode.
		var reports []specwise.MismatchReport
		t := time.Now()
		if call("mismatch.analyze", func() (err error) {
			reports, err = specwise.AnalyzeMismatch(fc, fc.InitialDesign(), seed)
			return err
		}) {
			pass.mismat = time.Since(t)
			top := specwise.TopPairs(reports, 1)
			out.check(len(top) == 1 && top[0].Value > 0, "%s: Table 5 has no mismatch pair with a measure > 0", req)
		}

		// (2) Table 1 and (3) Table 6 under the paper's search, then the
		// cem backend on the OTA. A leg that failed leaves a nil result.
		// (4) Sign-off: right after each leg, independent Monte-Carlo
		// verifications of its optimized design must agree with the yield
		// the optimizer reported for it.
		legs := []struct {
			name, algo string
			p          *core.Problem
			opts       specwise.Options
		}{
			{"search.feasguided", "", fc, specwise.Options{ModelSamples: pfModelSamples, VerifySamples: pfVerifySamples, MaxIterations: pfIterations}},
			{"search.feasguided", "", miller, specwise.Options{ModelSamples: pfModelSamples, VerifySamples: pfVerifySamples, MaxIterations: pfIterations}},
			{"search.cem", "cem", ota, specwise.Options{ModelSamples: 1500, VerifySamples: 80, MaxIterations: 2}},
		}
		results := make([]*core.Result, len(legs))
		pass.optimize = make([][]float64, len(legs))
		pass.verify = make([][]float64, len(legs))
		for i, leg := range legs {
			opts := leg.opts
			opts.Algorithm, opts.Seed, opts.HasSeed = leg.algo, seed, true
			var pl progressLog
			opts.Progress = pl.hook
			t := time.Now()
			if !call(leg.name, func() (err error) {
				results[i], err = specwise.Optimize(leg.p, opts)
				return err
			}) {
				results[i] = nil
				continue
			}
			dt := time.Since(t)
			pass.optimize[i] = []float64{dt.Seconds()}
			if leg.algo == "cem" {
				pass.cem += dt
			} else {
				pass.feasguided += dt
			}
			cycles.add(pl.times, pl.stages)
			pass.yields = append(pass.yields, finalYield(results[i]))
			pass.hitRate[0] += results[i].EvalCache.Hits
			pass.hitRate[1] += results[i].EvalCache.Misses

			r := results[i]
			n := r.Iterations[len(r.Iterations)-1].MCResult.Estimate.Total
			for _, sd := range signoffSeeds {
				var mc *specwise.MCResult
				t := time.Now()
				if !call("core.signoff", func() (err error) {
					mc, err = specwise.VerifyYield(leg.p, r.FinalDesign, signoffSamples, sd)
					return err
				}) {
					continue
				}
				pass.verify[i] = append(pass.verify[i], ms(time.Since(t)))
				out.check(yieldsAgree(finalYield(r), n, mc.Estimate.Yield(), signoffSamples),
					"%s: %s sign-off yield %.3f disagrees with the optimizer's %.3f", req, r.Problem.Name, mc.Estimate.Yield(), finalYield(r))
			}
		}
		if fcRes := results[0]; fcRes != nil {
			pass.table1Sims = fcRes.Simulations
			out.check(fcRes.Iterations[0].MCYield == 0, "%s: folded cascode initial yield %.3f, want 0", req, fcRes.Iterations[0].MCYield)
			out.check(finalYield(fcRes) > fcRes.Iterations[0].MCYield, "%s: folded cascode yield did not improve (%.3f)", req, finalYield(fcRes))
			if seed == paperSeed {
				out.check(fcRes.Simulations == paperTable1Sims && math.Abs(finalYield(fcRes)-paperTable1Yield) < 1e-9,
					"%s: Table-1 leg at the paper seed: %d simulations, final yield %.4f; want %d and %.2f",
					req, fcRes.Simulations, finalYield(fcRes), paperTable1Sims, paperTable1Yield)
			}
		}
		if miRes := results[1]; miRes != nil {
			mi0 := miRes.Iterations[0].MCYield
			out.check(math.Abs(mi0-1.0/3) <= 4.5*math.Sqrt(1.0/3*2.0/3/pfVerifySamples),
				"%s: Miller initial yield %.3f, want ≈33%%", req, mi0)
			out.check(finalYield(miRes) >= 0.95, "%s: Miller final yield %.3f, want ≈100%%", req, finalYield(miRes))
		}

		pass.sims = probe.evals.Load() - evals0
		cfg.tr.end(root, pass.sims)
		pass.wall = time.Since(t0)
		pass.heap = cfg.rs.heapPeak(t0, time.Now())
		if k >= pfSeeds {
			p0 := passes[k-pfSeeds]
			out.check(pass.sims == p0.sims && fmt.Sprint(pass.yields) == fmt.Sprint(p0.yields),
				"%s: not a repeat of pass %d (%d simulations, yields %v; then %d, %v)", req, k-pfSeeds, pass.sims, pass.yields, p0.sims, p0.yields)
		}
		passes = append(passes, pass)
		longest = max(longest, pass.wall)
		fmt.Fprintf(os.Stderr, "%s (seed %d): %.2fs, %d simulations (Table-1 leg %d), final yields %v\n",
			req, seed, pass.wall.Seconds(), pass.sims, pass.table1Sims, pass.yields)
	}

	units := float64(len(passes))
	out.units = units
	// A pass's figures depend on its sub-seed's optimizer trajectory, and
	// how many passes each sub-seed gets depends on the run, so timings
	// and heap peaks are taken per sub-seed (the median of its passes)
	// and averaged over the sub-seeds. The three legs' calls take
	// different times (the folded cascode's sign-off about twice the
	// OTA's), and a median of their mix would jump between legs, so
	// per-call timings are also taken per leg and averaged over the legs.
	bySeed := func(get func(pfPass) []float64) float64 {
		var meds []float64
		for i := 0; i < pfSeeds; i++ {
			var xs []float64
			for k := i; k < len(passes); k += pfSeeds {
				xs = append(xs, get(passes[k])...)
			}
			if len(xs) > 0 {
				meds = append(meds, median(xs))
			}
		}
		return sum(meds) / float64(max(len(meds), 1))
	}
	byLeg := func(get func(pfPass, int) []float64) float64 {
		t := 0.0
		for leg := 0; leg < pfLegs; leg++ {
			t += bySeed(func(p pfPass) []float64 { return get(p, leg) })
		}
		return t / pfLegs
	}
	// The work and lowest yield of a sub-seed are those of its first pass
	// (repeats are checked to be identical).
	var sims, lowest []float64
	for i := 0; i < pfSeeds; i++ {
		sims = append(sims, float64(passes[i].sims))
		lowest = append(lowest, minOf(passes[i].yields))
	}
	var ver, fg, cm, mm []float64
	var hits, misses int64
	for _, p := range passes {
		for _, v := range p.verify {
			ver = append(ver, v...)
		}
		fg = append(fg, p.feasguided.Seconds())
		cm = append(cm, p.cem.Seconds())
		mm = append(mm, p.mismat.Seconds())
		hits += p.hitRate[0]
		misses += p.hitRate[1]
	}
	m := out.m
	m["setup_s"] = median(setups)
	m["run_wall_s"] = bySeed(func(p pfPass) []float64 { return []float64{p.wall.Seconds()} })
	m["peak_heap_mb"] = bySeed(func(p pfPass) []float64 { return []float64{p.heap} })
	m["simulations"] = sum(sims) / pfSeeds
	m["final_yield_pct"] = 100 * median(lowest)
	m["optimize_p50_s"] = byLeg(func(p pfPass, leg int) []float64 { return p.optimize[leg] })
	// Six sign-offs a pass are too few for a tail in every run: the
	// latency's tail is its median.
	fillVerify(m, ver, len(ver), 50)
	m["verify_p50_ms"] = byLeg(func(p pfPass, leg int) []float64 { return p.verify[leg] })
	m["verify_p95_ms"] = m["verify_p50_ms"]
	m["completed_pct"] = pct(float64(out.attempted-out.failed), float64(out.attempted))
	m["_passes"] = units
	m["_table1_sims"] = float64(passes[0].table1Sims)

	m["search.feasguided_s"] = median(fg)
	m["search.cem_s"] = median(cm)
	m["mismatch.analyze_s"] = median(mm)
	m["evalcache.hit_pct"] = pct(float64(hits), float64(hits+misses))
	cycles.fill(m, units)
	if cfg.traced() {
		probe.layerMetrics(m, units)
		if err := replayAnalysis(cfg, raw[0], m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fillVerify sets the verify latency metrics from latencies in ms of
// attempted verify requests; requests that failed are absent from ms
// but still count against the SLO. verify_p95_ms is reported at the
// workload's tail percentile tailCap (at most p95), chosen so that every
// run has ten samples beyond it: how many passes or batches fit in a run
// then cannot change which percentile the run reports.
func fillVerify(m map[string]float64, ms []float64, attempted int, tailCap float64) {
	m["verify_p50_ms"] = median(ms)
	v, p := tail(ms, tailCap)
	m["verify_p95_ms"] = v
	m["_verify_tail_percentile"] = p
	m["_verify_samples"] = float64(len(ms))
	within := 0
	for _, x := range ms {
		if x <= float64(verifySLO)/float64(time.Millisecond) {
			within++
		}
	}
	m["verify_slo_pct"] = pct(float64(within), float64(attempted))
}

// replayAnalysis repeats one Fig.-6 analysis at the initial folded
// cascode, layer call by layer call, as Engine.Analyze and
// BenchmarkAblationCoordinateVsGradient drive it: worst-case operating
// points, one worst-case search per spec (concurrently), the spec-wise
// models, the sampled-yield estimator, the coordinate search and the
// Monte-Carlo verification. Each call is a span whose children are the
// simulator calls it caused.
func replayAnalysis(cfg runConfig, p *core.Problem, m map[string]float64) error {
	tr, seed := cfg.tr, cfg.seed
	root := tr.begin("replay", "replay", -1)
	t0 := time.Now()
	d := p.InitialDesign()
	zeroS := make([]float64, p.NumStat())

	// step times a layer call and counts the simulator calls beneath it.
	step := func(name string, fn func(q *core.Problem) error) (time.Duration, int64, error) {
		id := tr.begin(name, "replay", root)
		var n atomic.Int64
		q := spanProblem(p, tr, id, "replay")
		inner := q.Eval
		q.Eval = func(d, s, th []float64) ([]float64, error) {
			n.Add(1)
			return inner(d, s, th)
		}
		t := time.Now()
		err := fn(q)
		dt := time.Since(t)
		tr.end(id, n.Load())
		return dt, n.Load(), err
	}

	var thetaRes *wcd.ThetaResult
	dt, sims, err := step("wcd.theta", func(q *core.Problem) (err error) {
		thetaRes, err = wcd.WorstCaseTheta(q, d, zeroS)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m["wcd.theta_s"], m["wcd.theta_sims"] = dt.Seconds(), float64(sims)

	wcs := make([]*wcd.WorstCase, p.NumSpecs())
	errs := make([]error, p.NumSpecs())
	var searchSims atomic.Int64
	var wg sync.WaitGroup
	tSearch := time.Now()
	for i := range p.Specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			theta := thetaRes.PerSpec[i]
			_, n, err := step("wcd.search", func(q *core.Problem) (err error) {
				margin := func(s []float64) (float64, error) {
					vals, err := q.Eval(d, s, theta)
					if err != nil {
						return 0, err
					}
					return q.Specs[i].Margin(vals[i]), nil
				}
				wcs[i], err = wcd.FindWorstCase(margin, q.NumStat(), wcd.Options{Seed: seed + uint64(i)*1000003})
				return err
			})
			searchSims.Add(n)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	searchWall := time.Since(tSearch)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	m["wcd.search_s"], m["wcd.search_sims"] = searchWall.Seconds(), float64(searchSims.Load())

	var models []*linmodel.SpecModel
	dt, sims, err = step("linmodel.build", func(q *core.Problem) (err error) {
		models, err = linmodel.Build(q, d, wcs, thetaRes.PerSpec, linmodel.BuildOptions{MirrorSpecs: true})
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m["linmodel.build_s"], m["linmodel.build_sims"] = dt.Seconds(), float64(sims)

	var est *linmodel.Estimator
	dt, _, _ = step("linmodel.estimate", func(q *core.Problem) error {
		est = linmodel.NewEstimator(models, q.NumStat(), pfModelSamples, rng.New(seed))
		est.Count(d)
		return nil
	})
	m["linmodel.estimate_s"] = dt.Seconds()

	box := coord.Box{Lo: make([]float64, p.NumDesign()), Hi: make([]float64, p.NumDesign()), Log: make([]bool, p.NumDesign())}
	for k, prm := range p.Design {
		box.Lo[k], box.Hi[k], box.Log[k] = prm.Lo, prm.Hi, prm.LogScale
	}
	var cres *coord.Result
	dt, _, _ = step("coord.search", func(*core.Problem) error {
		cres = coord.Search(box, est, nil, d, coord.Options{})
		return nil
	})
	m["coord.search_s"], m["coord.passes"] = dt.Seconds(), float64(cres.Passes)

	dt, sims, err = step("core.verify", func(q *core.Problem) error {
		_, err := core.VerifyMCContext(context.Background(), q, d, thetaRes.PerSpec, pfVerifySamples, seed^0xabcdef, 0)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m["core.verify_s"], m["core.verify_sims"] = dt.Seconds(), float64(sims)
	total := time.Since(t0)
	tr.end(root, 0)
	m["wcd.search_share_pct"] = pct(searchWall.Seconds(), total.Seconds())
	return nil
}
