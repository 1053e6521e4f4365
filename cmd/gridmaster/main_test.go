package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins gridmaster's flag set, so a knob cannot creep in (or
// out) unnoticed: every flag is a configuration the tests and the
// benchmark would have to cover.
func TestFlagSurface(t *testing.T) {
	const want = "accounts addr anonymous-tenant compact-bytes data-dir fair-share fsync host job-timeout lease-ttl metrics peers policy preempt queue-depth replicas retries retry-after retry-default shards tenant-quota trace"
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("gridmaster has %d flags:\n  %s\nwant %d:\n  %s", len(got), s, len(strings.Fields(want)), want)
	}
}
