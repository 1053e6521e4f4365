package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"uvacg/bench/rig"
	"uvacg/bench/stats"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are written down.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end and per_layer are required", path)
	}
	return &s, nil
}

// metric finds a metric of either list.
func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// boundBy says what each metric is bound by on this rig: the resource
// that would have to get faster for the number to move. Prefixes cover
// families of layer metrics.
var boundBy = []struct{ prefix, tag string }{
	{"setup_s", "process launch + NIS registration + warm-up sets (CPU)"},
	{"jobs_per_s", "CPU: 2 cores shared by master, 2 nodes and the load generator"},
	{"set_latency", "CPU queueing under the closed loop"},
	{"first_start", "CPU: submit + dispatch + staging RPC chain"},
	{"failed_frac", "correctness: unordered one-way delivery, timeouts"},
	{"cpu_ms_per_job", "CPU instructions per job (no sleep, no I/O wait)"},
	{"rss_mib", "state the daemons retain per finished set"},
	{"status_read", "CPU + contention with writes on the job-set resource"},
	{"staged_mib_per_s", "CPU: blob hashing, attachment copy, loopback sockets"},
	{"loadgen.box_speed", "the box: thread CPU time of the speed probe's fixed unit, reference ÷ measured"},
	{"loadgen.failed_reads", "correctness: a status read that errs or lists the wrong jobs"},
	{"gridsub.", "process launch + one chain8 set"},
	{"phase.", "client-observed arrival times (CPU queueing between events)"},
	{"wal.commit_fsync", "fsync of the checkout's file system"},
	{"wal.", "fsync + journaled bytes"},
	{"transport.tcp_mib", "memory bandwidth + loopback"},
	{"filesystem.", "CPU: hashing and copies; loopback"},
	{"scheduler.dispatch_inproc", "CPU, wire delay 0, in-process"},
	{"trace_overhead", "cost of -metrics interceptors and span bookkeeping"},
	{"", "CPU, single call, in-process"},
}

func boundByOf(metric string) string {
	for _, b := range boundBy {
		if strings.HasPrefix(metric, b.prefix) {
			return b.tag
		}
	}
	return ""
}

// printRun prints one run's metrics by name with their units.
func printRun(w io.Writer, spec *benchSpec, res *rig.Result) {
	fmt.Fprintf(w, "%s seed=%d traced=%v sets: attempted=%d failed=%d; status reads: attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.ReadsAttempted, res.ReadsFailed)
	// Say what tail the sample sizes support, so nobody reads a p99 of
	// 300 reads as a p99.
	sets, reads := res.Samples["sets_per_grid"], res.Samples["status_reads_per_grid"]
	fmt.Fprintf(w, "  %d grid(s); per grid %d sets (supports p%g) and %d status reads (supports p%g)\n",
		res.Samples["grids"], sets, stats.SupportedTail(sets), reads, stats.SupportedTail(reads))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, _ := spec.metric(name)
		fmt.Fprintf(w, "  %-40s %14.4f %-6s", name, res.Metrics[name], m.Unit)
		if grids := res.PerGrid[name]; len(grids) > 1 {
			fmt.Fprintf(w, " grids: %.4g", grids)
		}
		fmt.Fprintln(w)
	}
}
