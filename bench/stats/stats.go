// Package stats holds the small amount of arithmetic the benchmark
// reports with: nearest-rank percentiles, the "highest percentile the
// sample supports" rule, k-run summaries and the regression verdicts
// gridbench -compare prints.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values, which it sorts in place. An empty sample reads 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p / 100 * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(values) {
		rank = len(values)
	}
	return values[rank-1]
}

// tailCandidates are the tail percentiles a report may quote, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a quoted percentile: a
// p99 of 200 samples is its second-largest value and says nothing
// stable about the tail.
const minBeyond = 10

// SupportedTail returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 50 when none does.
func SupportedTail(n int) float64 {
	for _, p := range tailCandidates {
		// The small epsilon keeps 1000 samples × 1 % from reading 9.999….
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			return p
		}
	}
	return 50
}

// Summary is one metric over k runs.
type Summary struct {
	K      int     `json:"k"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize reduces the runs of one metric; it does not reorder runs.
func Summarize(runs []float64) Summary {
	if len(runs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), runs...)
	sort.Float64s(sorted)
	return Summary{K: len(sorted), Median: median(sorted), Min: sorted[0], Max: sorted[len(sorted)-1]}
}

// Median returns the median of values without reordering them.
func Median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return median(sorted)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Spread is (max − min) / median, the run-to-run spread -compare tests
// against a metric's bound.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

// Verdicts of Compare.
const (
	Regressed  = "regressed"
	Improved   = "improved"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Rule says how one metric is judged: which direction is better and by
// how much the median may worsen. Absolute bounds compare a difference
// (failed_frac); relative bounds compare a share of the old median.
type Rule struct {
	HigherIsBetter bool
	Bound          float64
	Absolute       bool
}

// Comparison is the outcome for one (metric, workload) pair. Change is
// new − old as a share of the old median (or the plain difference under
// an absolute bound); positive Worse means the new side reads worse.
type Comparison struct {
	Old, New Summary
	Worse    float64
	Verdict  string
}

// Compare judges the new runs of a metric against the old ones. A
// median worse by more than the bound is a regression, however noisy the
// runs. Anything else needs runs that resolve it: when either side's own
// spread exceeds the bound the verdict is unresolved, unless every run of
// one side beats every run of the other. Resolved, a median better by
// more than the bound is improved and one within it unchanged — also
// when one side won every run: two suites of one commit a few minutes
// apart do that on a box whose speed drifts by less than the bound.
func Compare(oldRuns, newRuns []float64, r Rule) Comparison {
	c := Comparison{Old: Summarize(oldRuns), New: Summarize(newRuns)}
	if c.Old.K == 0 || c.New.K == 0 {
		c.Verdict = Unresolved
		return c
	}
	diff := c.New.Median - c.Old.Median
	if r.HigherIsBetter {
		diff = -diff
	}
	spreadOld, spreadNew := c.Old.Spread(), c.New.Spread()
	if r.Absolute {
		c.Worse = diff
		spreadOld, spreadNew = c.Old.Max-c.Old.Min, c.New.Max-c.New.Min
	} else if c.Old.Median != 0 {
		c.Worse = diff / math.Abs(c.Old.Median)
	}
	resolved := spreadOld <= r.Bound && spreadNew <= r.Bound ||
		separated(c.New, c.Old, r.HigherIsBetter) || separated(c.Old, c.New, r.HigherIsBetter)
	switch {
	case c.Worse > r.Bound:
		c.Verdict = Regressed
	case !resolved:
		c.Verdict = Unresolved
	case c.Worse < -r.Bound:
		c.Verdict = Improved
	default:
		c.Verdict = Unchanged
	}
	return c
}

// separated reports whether every run of a reads better than every run
// of b.
func separated(a, b Summary, higherIsBetter bool) bool {
	if higherIsBetter {
		return a.Min > b.Max
	}
	return a.Max < b.Min
}
