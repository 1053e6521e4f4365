package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins gridsub's flag set, so a knob cannot creep in (or
// out) unnoticed: every flag is a configuration the tests and the
// benchmark would have to cover.
func TestFlagSurface(t *testing.T) {
	const want = "class compact-bytes data-dir fsync jobset listen master max-retry-after metrics out pass replicas retries timeout trace user v wal-flush-window"
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("gridsub has %d flags:\n  %s\nwant %d:\n  %s", len(got), s, len(strings.Fields(want)), want)
	}
}
