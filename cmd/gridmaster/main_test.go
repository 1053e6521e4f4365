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
	const want = "accounts addr compact-bytes data-dir fsync host metrics policy trace"
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
// name that is none of them — a typo, or data-aware, which left with the
// replication layer — is refused at start-up, naming the accepted ones,
// rather than started as greedy.
func TestPickPolicy(t *testing.T) {
	names := []string{"greedy", "round-robin", "random"}
	for _, name := range names {
		p, err := pickPolicy(name)
		if err != nil || p.Name() != name {
			t.Errorf("pickPolicy(%q) = %v, %v", name, p, err)
		}
	}
	for _, refused := range []string{"roundrobin", "data-aware"} {
		_, err := pickPolicy(refused)
		if err == nil {
			t.Fatalf("pickPolicy(%q) was accepted", refused)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("refusal %q does not name %q", err, name)
			}
		}
	}
}
