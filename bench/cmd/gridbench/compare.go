package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"uvacg/bench/stats"
)

func loadResults(path string) (*suiteResults, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResults
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &r, nil
}

// runCompare judges NEW against OLD per (end-to-end metric, workload)
// with the bounds of BENCHMARK.json and prints every ratio with its
// base. It returns 1 when anything regressed or failed_frac rose, 2 when
// a file lacks a pair it should hold, else 0; unresolved pairs are printed
// as such and do not fail the comparison, but they are not called
// unchanged either.
func runCompare(spec *benchSpec, oldPath, newPath string) int {
	oldRes, err := loadResults(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 2
	}
	newRes, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 2
	}
	rows, regressed, err := compareResults(spec, oldRes, newRes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tunit\told median (k, min..max)\tnew median (k, min..max)\tworse by\tbound\tverdict")
	counts := map[string]int{}
	for _, row := range rows {
		counts[row.Verdict]++
		c := row.Comparison
		worse := fmt.Sprintf("%+.1f%% of %.4g", 100*c.Worse, c.Old.Median)
		bound := fmt.Sprintf("%.1f%%", 100*row.rule.Bound)
		if row.rule.Absolute {
			worse = fmt.Sprintf("%+.4f on %.4f", c.Worse, c.Old.Median)
			bound = fmt.Sprintf("+%.3f abs", row.rule.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d, %.4g..%.4g)\t%.4g (%d, %.4g..%.4g)\t%s\t%s\t%s\n",
			row.metric, row.workload, unitOf(spec, row.metric),
			c.Old.Median, c.Old.K, c.Old.Min, c.Old.Max,
			c.New.Median, c.New.K, c.New.Min, c.New.Max,
			worse, bound, row.Verdict)
	}
	tw.Flush()
	fmt.Printf("%d regressed, %d unresolved, %d unchanged, %d improved\n",
		counts[stats.Regressed], counts[stats.Unresolved], counts[stats.Unchanged], counts[stats.Improved])
	if regressed {
		return 1
	}
	return 0
}

type compareRow struct {
	metric, workload string
	rule             stats.Rule
	stats.Comparison
}

// judgedMetrics is what -compare judges on every workload: the end-to-end
// metrics BENCHMARK.json lists, and failed_frac.
func judgedMetrics(spec *benchSpec) []string {
	names := []string{"failed_frac"}
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// compareResults judges every (end-to-end metric, workload) pair
// BENCHMARK.json lists; none is skipped. A pair either file lacks (a
// workload whose runs all failed, a results file of another benchmark)
// is an error, not a silent pass.
func compareResults(spec *benchSpec, oldRes, newRes *suiteResults) (rows []compareRow, regressed bool, err error) {
	var missing []string
	for _, w := range spec.Workloads {
		for _, name := range judgedMetrics(spec) {
			oldRuns, newRuns := oldRes.Runs[w.Name][name], newRes.Runs[w.Name][name]
			if len(oldRuns) == 0 {
				missing = append(missing, fmt.Sprintf("OLD lacks %s on %s", name, w.Name))
			}
			if len(newRuns) == 0 {
				missing = append(missing, fmt.Sprintf("NEW lacks %s on %s", name, w.Name))
			}
			if len(oldRuns) == 0 || len(newRuns) == 0 {
				continue
			}
			rule, _ := endToEndRule(spec, name)
			c := stats.Compare(oldRuns, newRuns, rule)
			if c.Verdict == stats.Regressed {
				regressed = true
			}
			rows = append(rows, compareRow{metric: name, workload: w.Name, rule: rule, Comparison: c})
		}
	}
	if len(missing) > 0 {
		return nil, false, fmt.Errorf("cannot compare: %s", strings.Join(missing, "; "))
	}
	return rows, regressed, nil
}
