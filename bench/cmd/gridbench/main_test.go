package main

import (
	"strings"
	"testing"

	"uvacg/bench/ledger"
	"uvacg/bench/rig"
	"uvacg/bench/stats"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the code must name the same workloads and metrics:
// the driver refuses a run that prints a metric the file does not list,
// or misses one it does.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec := loadRepoSpec(t)
	workloads := rig.Workloads()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the rig has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the rig", i, spec.Workloads[i].Name, w.Name)
		}
	}
	sameNames(t, "end_to_end", spec.EndToEnd, rig.EndToEndNames)
	sameNames(t, "per_layer", spec.PerLayer, append(append([]string(nil), rig.PerLayerNames...), ledger.Names...))
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if boundByOf(m.Name) == "" {
			t.Errorf("%s has no bound_by tag", m.Name)
		}
	}
}

func sameNames(t *testing.T, list string, got []metricSpec, want []string) {
	t.Helper()
	wanted := map[string]bool{}
	for _, n := range want {
		wanted[n] = true
	}
	for _, m := range got {
		if !wanted[m.Name] {
			t.Errorf("%s lists %s, which no run prints", list, m.Name)
		}
		delete(wanted, m.Name)
	}
	for n := range wanted {
		t.Errorf("%s lacks %s, which runs print", list, n)
	}
}

// fixedSpec has the shape of BENCHMARK.json with bounds the verdict
// tests can rely on.
func fixedSpec() *benchSpec {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "set_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	for _, name := range []string{"bag16", "chain8"} {
		spec.Workloads = append(spec.Workloads, workloadSpec{Name: name})
	}
	return spec
}

// steady fills every judged pair of both workloads with quiet runs; the
// tests then overwrite the pairs they are about.
func steady(spec *benchSpec) *suiteResults {
	r := &suiteResults{Runs: map[string]map[string][]float64{}}
	for _, w := range spec.Workloads {
		r.Runs[w.Name] = map[string][]float64{"phase.run_ms": {1, 2, 3}} // per-layer: never judged
		for _, name := range judgedMetrics(spec) {
			r.Runs[w.Name][name] = []float64{100, 101, 99}
		}
		r.Runs[w.Name]["failed_frac"] = []float64{0, 0, 0}
	}
	return r
}

func TestCompareResultsVerdicts(t *testing.T) {
	spec := fixedSpec()
	oldRes, newRes := steady(spec), steady(spec)
	oldRes.Runs["bag16"]["jobs_per_s"] = []float64{400, 405, 395}
	newRes.Runs["bag16"]["jobs_per_s"] = []float64{300, 305, 295} // −25 %: regressed
	oldRes.Runs["bag16"]["set_latency_p50_ms"] = []float64{60, 61, 59}
	newRes.Runs["bag16"]["set_latency_p50_ms"] = []float64{60.5, 61.5, 59.5}
	oldRes.Runs["bag16"]["cpu_ms_per_job"] = []float64{3.0, 3.6, 2.7} // spread 0.30 > bound
	newRes.Runs["bag16"]["cpu_ms_per_job"] = []float64{3.1, 3.5, 2.8}
	oldRes.Runs["chain8"]["jobs_per_s"] = []float64{200, 202, 198}
	newRes.Runs["chain8"]["jobs_per_s"] = []float64{260, 262, 258}
	// Slower and noisier at once: the noise must not excuse the loss.
	oldRes.Runs["chain8"]["cpu_ms_per_job"] = []float64{5.0, 5.1, 4.9}
	newRes.Runs["chain8"]["cpu_ms_per_job"] = []float64{6.5, 8.0, 5.2}
	newRes.Runs["chain8"]["phase.run_ms"] = []float64{10, 20, 30}

	rows, regressed, err := compareResults(spec, oldRes, newRes)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 25 % throughput loss did not fail the comparison")
	}
	if want := len(spec.Workloads) * (len(spec.EndToEnd) + 1); len(rows) != want {
		t.Errorf("%d pairs judged, want every one of %d", len(rows), want)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.workload+"/"+r.metric] = r.Verdict
	}
	want := map[string]string{
		"bag16/jobs_per_s":          stats.Regressed,
		"bag16/set_latency_p50_ms":  stats.Unchanged,
		"bag16/cpu_ms_per_job":      stats.Unresolved,
		"bag16/failed_frac":         stats.Unchanged,
		"chain8/jobs_per_s":         stats.Improved,
		"chain8/cpu_ms_per_job":     stats.Regressed,
		"chain8/set_latency_p50_ms": stats.Unchanged,
		"chain8/failed_frac":        stats.Unchanged,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}
	if _, judged := got["chain8/phase.run_ms"]; judged {
		t.Error("a per-layer metric was judged")
	}

	// The same runs on both sides never regress; a higher failed_frac does.
	if _, regressed, err := compareResults(spec, oldRes, oldRes); regressed || err != nil {
		t.Errorf("a results file against itself: regressed=%v err=%v", regressed, err)
	}
	failing := steady(spec)
	failing.Runs["bag16"]["failed_frac"] = []float64{0.01, 0.02, 0.01}
	if _, regressed, _ := compareResults(spec, oldRes, failing); !regressed {
		t.Error("a higher failed_frac did not fail the comparison")
	}
}

// A pair that one file lacks is an error: a workload whose runs all
// failed, or a metric a change stopped reporting, must not pass unseen.
func TestCompareResultsRefusesAMissingPair(t *testing.T) {
	spec := fixedSpec()
	noMetric := steady(spec)
	delete(noMetric.Runs["chain8"], "jobs_per_s")
	if _, _, err := compareResults(spec, steady(spec), noMetric); err == nil || !strings.Contains(err.Error(), "NEW lacks jobs_per_s on chain8") {
		t.Errorf("NEW without chain8 jobs_per_s: err = %v", err)
	}
	noWorkload := steady(spec)
	delete(noWorkload.Runs, "bag16")
	if _, _, err := compareResults(spec, noWorkload, steady(spec)); err == nil || !strings.Contains(err.Error(), "OLD lacks") {
		t.Errorf("OLD without bag16: err = %v", err)
	}
}

// failed_frac is sets over sets: the several hundred status reads a grid
// answers beside them must not dilute a failed set below the bound.
func TestFailedFracCountsSetsOnly(t *testing.T) {
	r := &rig.Result{Attempted: 105, Failed: 2, ReadsAttempted: 495, ReadsFailed: 0}
	if got, want := failedFrac(r), 2.0/105; got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
	rule, _ := endToEndRule(fixedSpec(), "failed_frac")
	if c := stats.Compare([]float64{0, 0, 0}, []float64{failedFrac(r), 0, failedFrac(r)}, rule); c.Verdict != stats.Regressed {
		t.Errorf("2 failed sets of 105 in two passes of three: %s, want regressed", c.Verdict)
	}
}
