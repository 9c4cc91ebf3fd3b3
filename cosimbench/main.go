// Command cosimbench is the co-simulation benchmark: it runs the router
// case study in-process through harness.RunContext, one simulation at a
// time, and reports host time per simulated millisecond end to end
// (untraced) or split by repository layer (traced).
//
// Usage:
//
//	cosimbench --workload NAME|all --seed N --seconds S --trace 0|1
//
// --seconds 0 is the untimed mode: one checked simulation per workload.
// Otherwise the workload repeats for S seconds after one warm-up run.
// The last line of standard output is a JSON result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cosimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "traffic seed")
	seconds := fs.Int("seconds", 10, "seconds to measure each workload; 0 runs each once, untimed")
	traceFlag := fs.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "cosimbench: want --seconds >= 0 and --trace 0 or 1")
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "cosimbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	// A simulation has no wall-clock bound of its own; a hung one must
	// not hang the benchmark.
	limit := time.Duration(len(ws)*(*seconds)+100) * time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "cosimbench: still running after %v; giving up\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	out := result{Correct: true}
	for _, w := range ws {
		var r *report
		if *traceFlag == 1 {
			r = measureTraced(w, *seed, time.Duration(*seconds)*time.Second)
		} else {
			r = measureTimed(w, *seed, time.Duration(*seconds)*time.Second)
		}
		r.print(stdout)
		out.add(w.name, r, len(ws) > 1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "cosimbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds a workload's report in; with several workloads the metric
// names are prefixed by the workload's.
func (o *result) add(workload string, r *report, prefix bool) {
	o.Attempted += r.attempted
	o.Failed += r.failed
	o.Correct = o.Correct && r.correct()
	if o.Metrics == nil {
		o.Metrics = map[string]value{}
	}
	for _, m := range r.metrics {
		if m.printOnly {
			continue
		}
		key := m.name
		if prefix {
			key = workload + "/" + key
		}
		o.Metrics[key] = value{m.value, m.unit}
	}
}

// metric is one reported figure. dist is set for figures taken from
// every sample, nil for single measurements. A printOnly figure is in
// the report but not in the JSON result.
type metric struct {
	name, unit string
	value      float64
	dist       *summary
	printOnly  bool
}

// report is one workload's outcome.
type report struct {
	workload          string
	traced            bool
	attempted, failed int
	errs              []string
	signatures        map[signature]int
	metrics           []metric
	notes             []string // host noise and ledger self-checks
	ledgerErrs        []string
}

func (r *report) correct() bool { return r.failed == 0 && len(r.ledgerErrs) == 0 && r.attempted > 0 }

// record counts a sample and returns whether it passed its checks.
func (r *report) record(s *sample) bool {
	r.attempted++
	if s.err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, s.err.Error())
		}
		return false
	}
	if r.signatures == nil {
		r.signatures = map[signature]int{}
	}
	r.signatures[s.signature()]++
	return true
}

// runUntil runs w, recording every sample, until deadline has passed;
// it always runs at least one. It returns the samples that passed.
func (r *report) runUntil(w workload, seed int64, deadline time.Time) []*sample {
	var ok []*sample
	for {
		if s := runSample(w, seed, nil); r.record(s) {
			ok = append(ok, s)
		}
		if !time.Now().Before(deadline) {
			return ok
		}
	}
}

// measureTimed is the end-to-end measurement: one warm-up run (checked
// but not timed) and then runs until d has passed.
func measureTimed(w workload, seed int64, d time.Duration) *report {
	r := &report{workload: w.name}
	if d > 0 {
		r.record(runSample(w, seed, nil))
	}
	samples := r.runUntil(w, seed, time.Now().Add(d))
	r.metrics = endToEnd(samples, r)
	r.notes = append(r.notes, hostNoise(samples))
	return r
}

// measureTraced gives a third of d to untraced runs, whose median net
// wall time is the base of trace.overhead_pct, and the rest to the
// traced phase that produces the ledger.
func measureTraced(w workload, seed int64, d time.Duration) *report {
	r := &report{workload: w.name, traced: true}
	if d > 0 {
		r.record(runSample(w, seed, nil))
	}
	start := time.Now()
	untraced := r.runUntil(w, seed, start.Add(d/3))
	tr, err := runTraced(w, seed, start.Add(d))
	if err != nil {
		r.ledgerErrs = append(r.ledgerErrs, err.Error())
		return r
	}
	var traced []*sample
	for _, s := range tr.samples {
		if r.record(s) {
			traced = append(traced, s)
		}
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return r
	}
	r.metrics = r.ledger(tr, traced, summarize(perSimMS(untraced, netWallMS)).median)
	return r
}

func wallMS(s *sample) float64 { return ms(s.res.Wall) }

func netWallMS(s *sample) float64 { return ms(s.netWall()) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perSimMS maps each sample through f and divides by its simulated ms.
func perSimMS(samples []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s) / s.simMS()
	}
	return out
}

func distMetric(name, unit string, vs []float64) metric {
	s := summarize(vs)
	return metric{name: name, unit: unit, value: s.median, dist: &s}
}

// endToEnd computes the six end-to-end metrics from the passing
// samples, plus the raw wall time behind wall_ms_per_sim_ms.
func endToEnd(samples []*sample, r *report) []metric {
	setups := make([]float64, len(samples))
	for i, s := range samples {
		setups[i] = s.setup().Seconds()
	}
	raw := distMetric("raw_wall_ms_per_sim_ms", "ms/ms", perSimMS(samples, wallMS))
	raw.printOnly = true
	return []metric{
		distMetric("wall_ms_per_sim_ms", "ms/ms", perSimMS(samples, netWallMS)),
		raw,
		distMetric("cpu_ms_per_sim_ms", "ms/ms", perSimMS(samples, func(s *sample) float64 { return ms(s.cpu) })),
		distMetric("alloc_mb_per_sim_ms", "MB/ms", perSimMS(samples, func(s *sample) float64 { return float64(s.res.AllocBytes) / 1e6 })),
		{name: "max_rss_mb", unit: "MB", value: maxRSSMB()},
		distMetric("setup_s", "s", setups),
		// 0 on a healthy run; the JSON result carries attempted and failed.
		{name: "failed_runs_pct", unit: "%", value: 100 * float64(r.failed) / float64(max(r.attempted, 1)), printOnly: true},
	}
}

// hostNoise summarises steal time and load around the samples, so a
// noisy set can be told apart from a noisy program.
func hostNoise(samples []*sample) string {
	var ticks cpuTicks
	var simMS float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		ticks.busy += s.ticks.busy
		ticks.steal += s.ticks.steal
		simMS += s.simMS()
		lo, hi = min(lo, s.load), max(hi, s.load)
	}
	if len(samples) == 0 {
		return "host: no passing samples"
	}
	return fmt.Sprintf("host: steal %.0f ms over the runs (%.3f ms per simulated ms, %.1f%% of busy host ticks), 1-min load average %.2f..%.2f",
		ticks.stealMS(), ticks.stealMS()/simMS, ticks.stealPct(), lo, hi)
}

func (r *report) print(w io.Writer) {
	mode := "end-to-end"
	if r.traced {
		mode = "traced ledger"
	}
	fmt.Fprintf(w, "== %s (%s): %d runs attempted, %d failed, %d distinct functional signature(s)\n",
		r.workload, mode, r.attempted, r.failed, len(r.signatures))
	sigs := make([]signature, 0, len(r.signatures))
	for sig := range r.signatures {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if ni, nj := r.signatures[sigs[i]], r.signatures[sigs[j]]; ni != nj {
			return ni > nj
		}
		return sigs[i].Instructions < sigs[j].Instructions
	})
	const shown = 3
	for _, sig := range sigs[:min(shown, len(sigs))] {
		fmt.Fprintf(w, "   signature x%d: %v\n", r.signatures[sig], sig)
	}
	if len(sigs) > shown {
		fmt.Fprintf(w, "   ... and %d more signatures\n", len(sigs)-shown)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	for _, e := range r.ledgerErrs {
		fmt.Fprintf(w, "   LEDGER CHECK FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "   %-30s %-6s %14s %14s %14s %4s %8s\n", "metric", "unit", "median", "q1", "q3", "n", "spread")
	for _, m := range r.metrics {
		if m.dist != nil {
			fmt.Fprintf(w, "   %-30s %-6s %14.6g %14.6g %14.6g %4d %7.2f%%\n",
				m.name, m.unit, m.value, m.dist.q1, m.dist.q3, m.dist.n, 100*m.dist.spread())
		} else {
			fmt.Fprintf(w, "   %-30s %-6s %14.6g\n", m.name, m.unit, m.value)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
}
