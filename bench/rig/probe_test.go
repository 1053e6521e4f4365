package rig

import (
	"slices"
	"testing"
	"time"
)

func TestSpeedIndexIsTheReferenceOverTheWindowsMedianUnitTime(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	p := &speedProbe{samples: []probeSample{
		{at(5), 10 * probeRefMicros}, // before the window: a slow unit nobody asked about
		{at(10), probeRefMicros},
		{at(20), 2 * probeRefMicros},
		{at(30), 2 * probeRefMicros},
		{at(40), 4 * probeRefMicros},
		{at(50), 2 * probeRefMicros},
		{at(60), probeRefMicros / 10}, // after it
	}}
	if got := p.speedIndex(at(10), at(50)); got != 0.5 {
		t.Errorf("a window whose median unit took twice the reference reads %v, want 0.5", got)
	}
	if got := p.speedIndex(at(10), at(10)); got != 1 {
		t.Errorf("a window holding one reference-time unit reads %v, want 1", got)
	}
	if got := p.speedIndex(at(11), at(19)); got != 1 {
		t.Errorf("a window without a sample reads %v, want 1", got)
	}
}

func TestSpeedProbeSamplesUntilStopped(t *testing.T) {
	start := time.Now()
	p := startSpeedProbe()
	time.Sleep(10 * probeInterval)
	p.Stop()
	n := len(p.samples)
	if n < 3 {
		t.Fatalf("%d samples in ten intervals", n)
	}
	for _, s := range p.samples {
		if s.micros <= 0 {
			t.Fatalf("a unit took %v µs of thread CPU time", s.micros)
		}
	}
	if got := p.speedIndex(start, time.Now()); got <= 0 {
		t.Errorf("speed index %v", got)
	}
	time.Sleep(2 * probeInterval)
	if len(p.samples) != n {
		t.Error("the probe kept sampling after Stop")
	}
}

func TestScaleToReference(t *testing.T) {
	m := map[string]float64{
		"jobs_per_s": 300, "set_latency_p50_ms": 200, "cpu_ms_per_job": 5, "phase.hop_ms": 4,
		"rss_mib": 150, "gridmaster.rpcs_per_job": 16, "wal.bytes_per_job": 49000, "loadgen.box_speed": 0.8,
	}
	scaleToReference(m, 0.8)
	want := map[string]float64{
		// A box at 0.8 of reference speed: throughput reads higher at
		// reference speed, durations shorter.
		"jobs_per_s": 375, "set_latency_p50_ms": 160, "cpu_ms_per_job": 4, "phase.hop_ms": 3.2,
		// Memory, counts and bytes are as measured.
		"rss_mib": 150, "gridmaster.rpcs_per_job": 16, "wal.bytes_per_job": 49000, "loadgen.box_speed": 0.8,
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

// Every scaled name must be a metric the rig reports, and every duration
// or rate it reports must be scaled: setup_s is (by runGrid, with the
// set-up window's index), and the two ratios of times are not.
func TestScaledMetricsAreExactlyTheRigsDurationsAndRates(t *testing.T) {
	reported := append(slices.Clone(EndToEndNames), PerLayerNames...)
	scaled := append(slices.Clone(scaledDurations), scaledRates...)
	for _, name := range scaled {
		if !slices.Contains(reported, name) {
			t.Errorf("%s is scaled but not reported", name)
		}
	}
	unscaled := []string{
		"setup_s", "rss_mib", "gridmaster.rss_mib", "gridnode.rss_mib",
		"gridmaster.late_over_early", "trace_overhead_frac", "loadgen.box_speed", "filesystem.wire_frac",
		"gridmaster.rpcs_per_job", "wsn.notify_in_per_job", "wsn.notify_out_per_job", "nodeinfo.reports_per_job",
		"wal.commits_per_job", "wal.bytes_per_job", "loadgen.reordered_events", "loadgen.directory_lookups",
	}
	for _, name := range reported {
		if slices.Contains(scaled, name) == slices.Contains(unscaled, name) {
			t.Errorf("%s must be either scaled to the reference speed or listed here as a count, a size or a ratio", name)
		}
	}
}
