package stats

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {90, 50}, {100, 50}, {20, 10}, {21, 20}, {1, 10}} {
		if got := Percentile(values, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
}

// The quoted tail is the highest percentile with at least ten samples
// beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := SupportedTail(c.n); got != c.want {
			t.Errorf("SupportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{12, 10, 11, 14})
	if s.K != 4 || s.Median != 11.5 || s.Min != 10 || s.Max != 14 {
		t.Fatalf("summary %+v", s)
	}
	if got, want := s.Spread(), 4/11.5; got != want {
		t.Errorf("spread %v, want %v", got, want)
	}
	if Summarize(nil).K != 0 {
		t.Error("empty summary has runs")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := Rule{Bound: 0.10}
	higher := Rule{Bound: 0.10, HigherIsBetter: true}
	for _, c := range []struct {
		name     string
		old, new []float64
		rule     Rule
		want     string
	}{
		{"latency up 20 % regresses", []float64{100, 101, 99}, []float64{120, 121, 119}, lower, Regressed},
		{"throughput down 20 % regresses", []float64{100, 101, 99}, []float64{80, 81, 79}, higher, Regressed},
		{"throughput up is not a regression", []float64{100, 101, 99}, []float64{120, 121, 119}, higher, Improved},
		{"tight runs inside the bound are unchanged", []float64{100, 101, 99}, []float64{102, 103, 101.5}, lower, Unchanged},
		{"overlapping tight runs are unchanged", []float64{100, 102, 98}, []float64{101, 99, 103}, lower, Unchanged},
		{"spread wider than the bound is unresolved", []float64{100, 115, 90}, []float64{101, 112, 92}, lower, Unresolved},
		{"wide spread but every new run better is improved", []float64{100, 115, 95}, []float64{80, 92, 70}, lower, Improved},
		{"median better past the bound but runs overlap widely is unresolved", []float64{100, 115, 90}, []float64{85, 104, 80}, lower, Unresolved},
		{"every new run better by less than the bound is unchanged, not improved", []float64{100, 101, 99}, []float64{95, 96, 94}, lower, Unchanged},
		{"every new run worse by less than the bound is unchanged", []float64{100, 101, 99}, []float64{105, 106, 104}, lower, Unchanged},
		{"wide spread, every new run better, median inside the bound is unchanged", []float64{100, 112, 98}, []float64{95, 97, 85}, lower, Unchanged},
		{"wide spread and the median past the bound still regresses", []float64{100, 115, 90}, []float64{130, 150, 118}, lower, Regressed},
		{"one side missing is unresolved", []float64{100}, nil, lower, Unresolved},
	} {
		if got := Compare(c.old, c.new, c.rule); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareAbsoluteBound(t *testing.T) {
	rule := Rule{Bound: 0.005, Absolute: true}
	if c := Compare([]float64{0, 0, 0}, []float64{0, 0, 0}, rule); c.Verdict != Unchanged {
		t.Errorf("0 → 0: %s", c.Verdict)
	}
	if c := Compare([]float64{0, 0, 0}, []float64{0.01, 0.02, 0.01}, rule); c.Verdict != Regressed || c.Worse != 0.01 {
		t.Errorf("0 → 0.01: %+v", c)
	}
	if c := Compare([]float64{0, 0, 0}, []float64{0.001, 0.002, 0.001}, rule); c.Verdict == Regressed {
		t.Errorf("a rise inside the absolute bound regressed: %+v", c)
	}
}
