// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks that the program's outputs are
// correct, and prints its metrics as one JSON object on the last line of
// standard output. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it records spans around every layer call, writes them to
// .bench_build/traces/, and prints the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload paper-flow --seed 20010618 --seconds 45 --trace 0
//
// (from the root of the repository) builds and runs it. NOTES.md lists the workloads, the metrics and which layer each one
// measures. The exit code is 0 when every check passed, 1 when a check
// failed (the result is still printed, with "correct": false), and 2
// when the run could not be carried out (nothing is printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed   uint64
	window time.Duration
	tr     *Tracer // nil when untraced
	rs     *runtimeSampler
}

func (c runConfig) traced() bool { return c.tr != nil }

// outcome is what a workload hands back.
type outcome struct {
	m         map[string]float64
	attempted int
	failed    int
	failures  []string
	units     float64 // passes or batches: the divisor of per-unit layer metrics
}

func newOutcome() *outcome { return &outcome{m: make(map[string]float64)} }

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// selfMetrics turns the trace into per-layer self time per unit of work.
func (o *outcome) selfMetrics(tr *Tracer) {
	spans := tr.snapshot()
	o.m["trace.spans"] = float64(len(spans))
	for layer, d := range selfTimes(spans) {
		o.m["self."+layer+"_s"] = d.Seconds() / max(o.units, 1)
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"paper-flow":   runPaperFlow,
	"sweep-remote": runSweepRemote,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper-flow or sweep-remote")
	seed := flag.Uint64("seed", 20010618, "seed every workload input is derived from")
	secs := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-flow|sweep-remote --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	cfg := runConfig{seed: *seed, window: time.Duration(*secs) * time.Second,
		tr: newTracer(*trace == 1), rs: startRuntimeSampler()}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	cfg.rs.finish(out.m)
	if cfg.traced() {
		out.m["trace.run_wall_s"] = out.m["run_wall_s"]
		out.selfMetrics(cfg.tr)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}

	defs := endToEnd
	if cfg.traced() {
		defs = perLayer
	}
	res := resultOut{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricOut{Value: out.m[d.Name], Unit: d.Unit}
	}
	printSummary(out, defs)
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

// printSummary writes the metrics one per line, and every failed check,
// to standard error.
func printSummary(out *outcome, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", d.Name, out.m[d.Name], d.Unit)
	}
	var extra []string
	for k := range out.m {
		if k[0] == '_' {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g\n", k, out.m[k])
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", f)
	}
}
