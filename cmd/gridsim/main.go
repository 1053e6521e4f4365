// Command gridsim soaks the deterministic chaos simulator: each
// scenario builds an in-process grid (scheduler, broker, NIS, N
// machines) over fault-injecting transports, drives randomized job-set
// DAGs through crashes and partitions, and checks the invariants
// (simgrid.CheckInvariants lists them). On a violation it prints the
// reproducing seed and exits nonzero.
//
//	gridsim                          # soak seeds 1..50
//	gridsim -seed 1337               # replay one scenario
//	gridsim -scenarios 500 -faults heavy
//
// A failing seed replays exactly:
//
//	gridsim -seed <seed> [-faults <profile>]
//	go test ./internal/simgrid -run TestChaosScenarios -chaos.seed=<seed>
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uvacg/internal/simgrid"
)

var (
	seed      = flag.Int64("seed", 0, "run exactly this scenario seed (0 = sweep from -base)")
	base      = flag.Int64("base", 1, "first seed of the sweep")
	scenarios = flag.Int("scenarios", 50, "number of scenarios in the sweep")
	faults    = flag.String("faults", "", "override fault profile: none, light or heavy (default: per-scenario)")
	dir       = flag.String("dir", "", "data directory for durable stores (default: a temp dir, removed on success)")
	verbose   = flag.Bool("v", false, "print every scenario transcript, not only failures")
)

func main() {
	flag.Parse()
	if *faults != "" {
		if _, ok := simgrid.FaultProfiles[*faults]; !ok {
			names := make([]string, 0, len(simgrid.FaultProfiles))
			for name := range simgrid.FaultProfiles {
				names = append(names, name)
			}
			sort.Strings(names)
			log.Fatalf("gridsim: unknown -faults %q (have %v)", *faults, names)
		}
	}
	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "gridsim-*")
		if err != nil {
			log.Fatal(err)
		}
		root = tmp
		defer os.RemoveAll(tmp)
	}

	seeds := make([]int64, 0, *scenarios)
	if *seed != 0 {
		seeds = append(seeds, *seed)
	} else {
		for s := *base; s < *base+int64(*scenarios); s++ {
			seeds = append(seeds, s)
		}
	}

	start := time.Now()
	failures := 0
	for _, s := range seeds {
		res := simgrid.RunSeed(s, simgrid.RunOptions{
			Dir:    filepath.Join(root, fmt.Sprintf("seed-%d", s)),
			Faults: *faults,
		})
		switch {
		case res.Failed():
			failures++
			fmt.Printf("FAIL seed=%d (%d chaos decisions)\n", s, res.Decisions)
			if res.Err != nil {
				fmt.Printf("  harness: %v\n", res.Err)
			}
			for _, v := range res.Violations {
				fmt.Printf("  %s\n", v)
			}
			fmt.Printf("  transcript:\n%s", indent(res.Transcript))
			fmt.Printf("  replay: gridsim -seed %d", s)
			if *faults != "" {
				fmt.Printf(" -faults %s", *faults)
			}
			fmt.Println()
		case *verbose:
			fmt.Printf("ok   seed=%d sets=%d decisions=%d\n%s", s, res.Sets, res.Decisions, indent(res.Transcript))
		default:
			fmt.Printf("ok   seed=%d sets=%d decisions=%d\n", s, res.Sets, res.Decisions)
		}
	}
	fmt.Printf("gridsim: %d scenarios, %d failed, %v\n", len(seeds), failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("    " + line + "\n")
	}
	return b.String()
}
