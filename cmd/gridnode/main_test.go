package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins gridnode's flag set, so a knob cannot creep in (or
// out) unnoticed: every flag is a configuration the tests and the
// benchmark would have to cover.
func TestFlagSurface(t *testing.T) {
	const want = "accounts addr compact-bytes cores data-dir fsync host master metrics name ram speed threshold trace"
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("gridnode has %d flags:\n  %s\nwant %d:\n  %s", len(got), s, len(strings.Fields(want)), want)
	}
}
