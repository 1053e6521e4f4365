package ledger

import (
	"math"
	"sort"
	"testing"
)

// One pass of the whole ledger (about 5 s): every named row is measured,
// nothing unnamed is, and every value is a positive finite number.
func TestRunMeasuresEveryNamedRow(t *testing.T) {
	rows, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, n := range Names {
		want[n] = true
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rows[n]
		t.Logf("%-44s %14.2f", n, v)
		if !want[n] {
			t.Errorf("row %s is not in Names", n)
		}
		delete(want, n)
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("row %s = %v", n, v)
		}
	}
	for n := range want {
		t.Errorf("row %s was not measured", n)
	}
}
