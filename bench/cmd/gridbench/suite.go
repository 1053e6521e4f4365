package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"uvacg/bench/ledger"
	"uvacg/bench/rig"
	"uvacg/bench/stats"
)

type suiteOptions struct {
	seed    int64
	seconds int
	smoke   bool
	out     string
}

const (
	// passes is how many untraced passes the suite makes over the
	// workloads before its traced pass (-smoke makes one).
	passes = 3
	// smokeSets is the timed set count of every workload under -smoke.
	smokeSets = 10
)

// suiteResults is the file the suite writes and -compare reads: every
// run of every metric, per workload. The ledger is workload-independent
// and filed under the pseudo-workload "ledger".
type suiteResults struct {
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"`
	Smoke   bool  `json:"smoke,omitempty"`
	// Runs maps workload → metric → one value per pass, in pass order.
	Runs map[string]map[string][]float64 `json:"runs"`
}

const ledgerWorkload = "ledger"

func (r *suiteResults) add(workload string, metrics map[string]float64) {
	if r.Runs[workload] == nil {
		r.Runs[workload] = map[string][]float64{}
	}
	for name, v := range metrics {
		r.Runs[workload][name] = append(r.Runs[workload][name], v)
	}
}

// runSuite interleaves the workloads across passes (A B C D, A B C D, …)
// so that slow drift of the box lands on every workload alike, then
// makes one traced pass for the per-layer numbers, runs the ledger and
// prints every metric with unit, k, median, min, max and bound_by.
func runSuite(ctx context.Context, env *environment, spec *benchSpec, o suiteOptions) int {
	res := &suiteResults{Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Runs: map[string]map[string][]float64{}}
	workloads := rig.Workloads()
	untraced := passes
	if o.smoke {
		untraced = 1
	}
	failed := false
	run := func(w *rig.Workload, pass int, traced bool) (*rig.Result, bool) {
		opts := env.options(w, o.seed+int64(pass), o.seconds, traced)
		if o.smoke {
			opts.Sets = smokeSets
		}
		r, err := rig.Run(ctx, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %s pass %d: %v\n", w.Name, pass, err)
			failed = true
			return nil, false
		}
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "gridbench: %s pass %d: failure: %s\n", w.Name, pass, f)
		}
		r.Metrics["failed_frac"] = failedFrac(r)
		r.Metrics["loadgen.failed_reads"] = float64(r.ReadsFailed)
		if r.ReadsFailed > 0 {
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-9s pass %d traced=%-5v %7.1f jobs/s, p50 %7.1f ms, failed %d of %d sets and %d of %d reads\n",
			w.Name, pass, traced, r.Metrics["jobs_per_s"], r.Metrics["set_latency_p50_ms"], r.Failed, r.Attempted, r.ReadsFailed, r.ReadsAttempted)
		return r, true
	}
	for pass := 1; pass <= untraced && ctx.Err() == nil; pass++ {
		for _, w := range workloads {
			if r, ok := run(w, pass, false); ok {
				res.add(w.Name, r.Metrics)
			}
		}
	}
	if !o.smoke && ctx.Err() == nil {
		for _, w := range workloads {
			r, ok := run(w, untraced+1, true)
			if !ok {
				continue
			}
			// End-to-end numbers come from the untraced passes only.
			layer := map[string]float64{}
			for name, v := range r.Metrics {
				if _, e2e := endToEndRule(spec, name); !e2e {
					layer[name] = v
				}
			}
			res.add(w.Name, layer)
		}
		for i := 0; i < ledgerPasses && ctx.Err() == nil; i++ {
			rows, err := ledger.Run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
				failed = true
				break
			}
			res.add(ledgerWorkload, rows)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "gridbench: interrupted")
		return 130
	}
	printTable(os.Stdout, spec, res)
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(o.out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "results written to %s\n", o.out)
	if failed {
		return 1
	}
	return 0
}

// ledgerPasses is how many times the suite repeats the whole ledger;
// each ledger row is already a median of five timings.
const ledgerPasses = 3

// endToEndRule returns the comparison rule of an end-to-end metric.
// failed_frac is end-to-end too, but BENCHMARK.json cannot list it (it
// is 0 on a healthy grid and the driver wants metrics that never are):
// its bound is absolute.
func endToEndRule(spec *benchSpec, name string) (stats.Rule, bool) {
	if name == "failed_frac" {
		return stats.Rule{Bound: 0.005, Absolute: true}, true
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return stats.Rule{HigherIsBetter: m.Better == "higher", Bound: m.Bound}, true
		}
	}
	return stats.Rule{}, false
}

// failedFrac is failed sets ÷ attempted sets. Status reads are not in
// it: a grid answers several hundred of them per hundred sets, and they
// would dilute a failed set below the metric's absolute bound.
func failedFrac(r *rig.Result) float64 {
	return float64(r.Failed) / float64(r.Attempted)
}

func unitOf(spec *benchSpec, name string) string {
	if m, ok := spec.metric(name); ok {
		return m.Unit
	}
	switch name {
	case "failed_frac":
		return "frac"
	case "loadgen.failed_reads":
		return "count"
	}
	return ""
}

// printTable prints every metric by name: end-to-end first, then
// per-layer, per workload, with unit, k, median, min, max and bound_by.
func printTable(out *os.File, spec *benchSpec, r *suiteResults) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tmetric\tworkload\tunit\tk\tmedian\tmin\tmax\tspread\tbound\tbound_by")
	workloads := make([]string, 0, len(r.Runs))
	for w := range r.Runs {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, kind := range []string{"end_to_end", "per_layer"} {
		for _, w := range workloads {
			names := make([]string, 0, len(r.Runs[w]))
			for name := range r.Runs[w] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				rule, e2e := endToEndRule(spec, name)
				rowKind, bound := "per_layer", "-"
				if e2e {
					rowKind = "end_to_end"
					bound = fmt.Sprintf("%.3g", rule.Bound)
				}
				if rowKind != kind {
					continue
				}
				s := stats.Summarize(r.Runs[w][name])
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%s\t%s\n",
					rowKind, name, w, unitOf(spec, name), s.K, s.Median, s.Min, s.Max, s.Spread(), bound, boundByOf(name))
			}
		}
	}
	tw.Flush()
}
