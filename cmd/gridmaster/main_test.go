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
	const want = "accounts addr compact-bytes data-dir fair-share fsync host job-timeout metrics policy preempt queue-depth replicas retries retry-default tenant-quota trace"
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

// TestPickPolicy: each documented -policy name selects its policy, and a
// name that is none of them is refused at start-up rather than started as
// greedy.
func TestPickPolicy(t *testing.T) {
	names := []string{"greedy", "round-robin", "random", "data-aware"}
	for _, name := range names {
		p, err := pickPolicy(name)
		if err != nil || p.Name() != name {
			t.Errorf("pickPolicy(%q) = %v, %v", name, p, err)
		}
	}
	_, err := pickPolicy("roundrobin")
	if err == nil {
		t.Fatal(`pickPolicy("roundrobin") was accepted`)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("refusal %q does not name %q", err, name)
		}
	}
}
