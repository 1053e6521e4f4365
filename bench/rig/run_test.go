package rig

import (
	"math"
	"testing"
	"time"
)

func TestPhaseMetricsClampAndCountReorderedEvents(t *testing.T) {
	sets := []SetResult{
		{AckMs: 1, CompletedMs: 20, TotalMs: 22, Jobs: []JobSpan{
			{Name: "s0", Node: "http://a", DirectoryMs: 2, StartedMs: 5, ExitedMs: 8},
			// s1's directory event overtook s0's exit: the hop clamps to 0.
			{Name: "s1", Node: "http://b", DirectoryMs: 7, StartedMs: 10, ExitedMs: 15},
		}},
		{AckMs: 3, CompletedMs: 30, TotalMs: 31, Jobs: []JobSpan{
			{Name: "s0", Node: "http://a", DirectoryMs: 4, StartedMs: 6, ExitedMs: 9},
			{Name: "s1", Node: "http://a", DirectoryMs: 12, StartedMs: 13, ExitedMs: 0}, // exit never arrived
		}},
		{Err: "job set ended failed", AckMs: 100},
	}
	m := map[string]float64{}
	phaseMetrics(m, sets, true)
	want := map[string]float64{
		"phase.submit_ack_ms":        3, // nearest-rank median of {1, 3}… of two is the lower
		"phase.ack_to_dispatch_ms":   1,
		"phase.staging_ms":           2, // {3, 3, 2, 1}
		"phase.run_ms":               3, // {3, 5, 3}
		"phase.hop_ms":               0, // {0 (clamped), 3}
		"phase.exit_to_completed_ms": 5, // {5, 21}
		"phase.fetch_ms":             1, // {2, 1}
		"loadgen.reordered_events":   1,
		"filesystem.wire_frac":       0.5,
	}
	want["phase.submit_ack_ms"] = 1
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestLateOverEarly(t *testing.T) {
	// Eight sets: the first two complete 10 ms apart, the last two 20 ms.
	steady := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	if got := lateOverEarly(steady); got != 1 {
		t.Errorf("steady run reads %v, want 1", got)
	}
	slowing := []float64{10, 20, 30, 40, 50, 60, 80, 100}
	if got := lateOverEarly(slowing); got != 0.5 {
		t.Errorf("a run whose last quarter takes twice as long reads %v, want 0.5", got)
	}
	if got := lateOverEarly([]float64{1, 2, 3}); got != 0 {
		t.Errorf("too few sets read %v, want 0", got)
	}
}

func TestTraceOverheadComparesTheTracedGridWithTheRunsUntracedGrids(t *testing.T) {
	// Three untraced grids, then the traced one at 90 % of their median.
	if got := traceOverhead([]float64{410, 400, 390, 360}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead = %v, want 0.1", got)
	}
	// The run's own median (395) would have read 0.09 and, with a slow
	// untraced grid in it, less: the untraced grids alone are the base.
	if got := traceOverhead([]float64{400, 200, 400, 400}); got != 0 {
		t.Errorf("a traced grid as fast as the untraced median reads %v, want 0", got)
	}
	if got := traceOverhead([]float64{400}); got != 0 {
		t.Errorf("a run of one grid reads %v, want 0", got)
	}
}

func TestDumpMetricsPerJob(t *testing.T) {
	master := []byte(`/NotificationBroker http://docs.oasis-open.org/wsn/x/Notify
  calls=300 faults=0 min=100µs mean=800µs max=3ms
/SchedulerConsumer http://docs.oasis-open.org/wsn/x/Notify
  calls=400 faults=0 min=100µs mean=400µs max=3ms
/listener http://docs.oasis-open.org/wsn/x/Notify
  calls=100 faults=0 min=100µs mean=1ms max=3ms
/NodeInfoService urn:uvacg:nis/Report
  calls=50 faults=0 min=100µs mean=1ms max=3ms
/SchedulerService urn:uvacg:ss/Submit
  calls=10 faults=0 min=100µs mean=900µs max=3ms
/wal commit
  calls=200 faults=0 min=100µs mean=1ms max=3ms
`)
	node := func(runMean string) []byte {
		return []byte("/ExecutionService urn:uvacg:es/Run\n  calls=50 faults=0 min=1ms mean=" + runMean + " max=9ms\n/wal commit\n  calls=100 faults=0 min=100µs mean=2ms max=3ms\n")
	}
	m := map[string]float64{}
	logs := map[string][]byte{"master": master, "n1": node("2ms"), "n2": node("4ms")}
	if err := dumpMetrics(m, logs, "master", 100, 1<<20); err != nil {
		t.Fatal(err)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	want := map[string]float64{
		"gridmaster.rpcs_per_job":   8.6, // every master row but /wal
		"scheduler.submit_mean_us":  900,
		"execution.run_rpc_mean_us": 3000, // call-weighted over both nodes
		"wsn.notify_in_per_job":     3,
		"wsn.notify_out_per_job":    5,
		"wsn.notify_mean_us":        800,
		"nodeinfo.reports_per_job":  0.5,
		"wal.commits_per_job":       4,
		"wal.commit_mean_us":        us(1500 * time.Microsecond),
		"wal.bytes_per_job":         (1 << 20) / 100.0,
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	if err := dumpMetrics(m, map[string][]byte{"n1": node("2ms")}, "master", 100, 0); err == nil {
		t.Error("a run without the master's dump reduced")
	}
}
