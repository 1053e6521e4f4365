package core

// EXPERIMENTS.md E7, E8 and F3, the paper-reproduction rigs that need a
// whole grid (E8 rides along: its monitor is the one every grid node
// runs), and E10's whole-grid row, BenchmarkSecuredGrid.

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/vfs"
	"uvacg/internal/wssec"
)

// gridHarness is the E7/F3 rig: a client of a simulated campus grid
// under a selectable scheduling policy.
type gridHarness struct {
	client *Client
}

// heterogeneousNodes is the standard E7 machine mix: one fast, two
// medium, one slow — the spread a campus grid of donated desktops has.
func heterogeneousNodes() []NodeSpec {
	return []NodeSpec{
		{Name: "fast", Cores: 4, SpeedMHz: 3200, RAMMB: 4096},
		{Name: "mid-a", Cores: 2, SpeedMHz: 2000, RAMMB: 2048},
		{Name: "mid-b", Cores: 2, SpeedMHz: 2000, RAMMB: 1024},
		{Name: "slow", Cores: 1, SpeedMHz: 800, RAMMB: 512},
	}
}

// newGridHarness builds a grid with the given nodes and policy; it
// closes with the test or benchmark. UnitTime is tuned so jobs are long
// enough for placement to matter but short enough for benchmarking.
func newGridHarness(tb testing.TB, nodes []NodeSpec, policy scheduler.Policy) *gridHarness {
	tb.Helper()
	grid, err := NewGrid(GridConfig{
		Nodes:    nodes,
		Policy:   policy,
		UnitTime: 20 * time.Microsecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(grid.Close)
	client, err := grid.NewClient(wssec.Credentials{}, false)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	client.AddFile("worker.app", procspawn.BuildScript("compute 4000", "write out.txt done", "exit 0"))
	client.AddFile("stage.app", procspawn.BuildScript("read in.txt", "compute 1500", "transform in.txt out.txt copy", "exit 0"))
	client.AddFile("seed.app", procspawn.BuildScript("compute 500", "write out.txt seed", "exit 0"))
	return &gridHarness{client: client}
}

// runBatch submits n independent worker jobs as one job set and returns
// the makespan (E7's bag-of-tasks workload).
func (h *gridHarness) runBatch(ctx context.Context, n int) (time.Duration, error) {
	set := NewJobSet(fmt.Sprintf("batch-%d", time.Now().UnixNano()))
	for i := 0; i < n; i++ {
		set.Add(fmt.Sprintf("w%03d", i), Local("worker.app"))
	}
	return h.runToCompletion(ctx, set.Spec())
}

// runPipeline submits a linear depth-stage dependency chain (E7's DAG
// workload; also the F3 end-to-end scenario).
func (h *gridHarness) runPipeline(ctx context.Context, depth int) (time.Duration, error) {
	set := NewJobSet(fmt.Sprintf("pipe-%d", time.Now().UnixNano()))
	set.Add("s0", Local("seed.app")).Outputs("out.txt")
	for i := 1; i < depth; i++ {
		set.Add(fmt.Sprintf("s%d", i), Local("stage.app")).
			Input("in.txt", Output(fmt.Sprintf("s%d", i-1), "out.txt")).
			Outputs("out.txt")
	}
	return h.runToCompletion(ctx, set.Spec())
}

func (h *gridHarness) runToCompletion(ctx context.Context, spec *JobSet) (time.Duration, error) {
	start := time.Now()
	sub, err := h.client.Submit(ctx, spec)
	if err != nil {
		return 0, err
	}
	status, err := sub.Wait(ctx)
	if err != nil {
		return 0, err
	}
	if status != scheduler.SetCompleted {
		_, detail := sub.Status()
		return 0, fmt.Errorf("job set %s: %s", status, detail)
	}
	return time.Since(start), nil
}

// utilizationSweep is the E8 rig: a monitor over a machine whose
// background load follows a sine wave; it reports how many threshold
// notifications a fixed number of samples produced, plus the mean
// staleness (absolute error between the NIS-visible value and truth).
func utilizationSweep(threshold float64, samples int) (notifies int, meanError float64, err error) {
	spawner, err := procspawn.NewSpawner(procspawn.Config{FS: vfs.New(), Cores: 2, SpeedMHz: 2000})
	if err != nil {
		return 0, 0, err
	}
	step := 0
	background := func() float64 {
		// One full load cycle per 200 samples, amplitude 0.45.
		return 0.45 + 0.45*math.Sin(2*math.Pi*float64(step)/200)
	}
	var reported float64
	monitor := procspawn.NewUtilizationMonitor(spawner, procspawn.MonitorConfig{
		Threshold:  threshold,
		Background: background,
		Notify:     func(u float64) { reported = u },
	})
	var errSum float64
	for step = 0; step < samples; step++ {
		truth := monitor.Utilization()
		if monitor.Sample() {
			notifies++
		}
		errSum += math.Abs(truth - reported)
	}
	return notifies, errSum / float64(samples), nil
}

// BenchmarkE7_Scheduling compares makespans of the paper's greedy
// "fastest, most available" policy against round-robin and random
// baselines on a heterogeneous grid (§4.5/§4.6).
func BenchmarkE7_Scheduling(b *testing.B) {
	ctx := context.Background()
	policies := []scheduler.Policy{scheduler.Greedy{}, scheduler.RoundRobin{}, scheduler.NewRandom(1)}
	for _, policy := range policies {
		b.Run("batch16/"+policy.Name(), func(b *testing.B) {
			h := newGridHarness(b, heterogeneousNodes(), policy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.runBatch(ctx, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, policy := range policies {
		b.Run("pipeline8/"+policy.Name(), func(b *testing.B) {
			h := newGridHarness(b, heterogeneousNodes(), policy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.runPipeline(ctx, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_UtilizationThreshold sweeps the Processor Utilization
// service's "configurable amount" (§4.4): notification volume against
// the staleness of the NIS view.
func BenchmarkE8_UtilizationThreshold(b *testing.B) {
	for _, threshold := range []float64{0.01, 0.05, 0.10, 0.25} {
		b.Run(fmt.Sprintf("threshold=%.2f", threshold), func(b *testing.B) {
			var notifies int
			var meanErr float64
			for i := 0; i < b.N; i++ {
				var err error
				notifies, meanErr, err = utilizationSweep(threshold, 1000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(notifies), "notifies/1000samples")
			b.ReportMetric(meanErr, "mean-staleness")
		})
	}
}

// BenchmarkE8_IdleRenewal counts the Reports an idle machine sends the
// NIS: with nothing to cross any threshold, only its renewals, which
// should be one per nodeinfo.RenewEvery. Each iteration watches three
// renewal periods of a grid whose one machine runs nothing.
func BenchmarkE8_IdleRenewal(b *testing.B) {
	grid, err := NewGrid(GridConfig{Nodes: []NodeSpec{{Name: "idle", Cores: 2, SpeedMHz: 2000}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(grid.Close)
	var reports atomic.Int64
	grid.Client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.Action == nodeinfo.ActionReport {
			reports.Add(1)
		}
		return next(ctx, call)
	})
	const periods = 3
	var watched time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		time.Sleep(periods * nodeinfo.RenewEvery)
		watched += time.Since(start)
	}
	b.ReportMetric(float64(reports.Load())/(float64(watched)/float64(nodeinfo.RenewEvery)), "reports/renewal-period")
}

// BenchmarkF3_JobSetEndToEnd runs the whole Fig. 3 sequence — submit,
// schedule, stage, spawn, notify, advance the DAG — as one measured
// operation.
func BenchmarkF3_JobSetEndToEnd(b *testing.B) {
	h := newGridHarness(b, []NodeSpec{
		{Name: "win-a", Cores: 2, SpeedMHz: 2800, RAMMB: 1024},
		{Name: "win-b", Cores: 1, SpeedMHz: 1400, RAMMB: 512},
	}, scheduler.Greedy{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.runPipeline(context.Background(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecuredGrid prices the grid's credential path per job: two
// 4-core nodes, Greedy, bags of 64 no-op jobs, once with no accounts and
// once with accounts on every host, so that each Submit and each Run
// carries a UsernameToken digest the receiver verifies. CPU is the whole
// process's, from getrusage: the master, the nodes and the client share
// it, as they share the job's work.
func BenchmarkSecuredGrid(b *testing.B) {
	const jobs = 64
	for _, posture := range []struct {
		name     string
		accounts wssec.StaticAccounts
		creds    wssec.Credentials
	}{
		{"plain", nil, wssec.Credentials{}},
		{"secured", wssec.StaticAccounts{"scientist": "secret"}, wssec.Credentials{Username: "scientist", Password: "secret"}},
	} {
		b.Run(posture.name, func(b *testing.B) {
			grid, err := NewGrid(GridConfig{
				Nodes: []NodeSpec{
					{Name: "node-a", Cores: 4, SpeedMHz: 2000, RAMMB: 2048},
					{Name: "node-b", Cores: 4, SpeedMHz: 2000, RAMMB: 2048},
				},
				Policy:   scheduler.Greedy{},
				Accounts: posture.accounts,
				UnitTime: 5 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(grid.Close)
			client, err := grid.NewClient(posture.creds, false)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(client.Close)
			client.AddFile("noop.app", procspawn.BuildScript("exit 0"))
			h := &gridHarness{client: client}
			sets := 0
			bag := func() error {
				sets++
				set := NewJobSet(fmt.Sprintf("bag-%d", sets))
				for i := 0; i < jobs; i++ {
					set.Add(fmt.Sprintf("j%02d", i), Local("noop.app"))
				}
				_, err := h.runToCompletion(context.Background(), set.Spec())
				return err
			}
			for i := 0; i < 3; i++ { // warm up pools, caches and the heap
				if err := bag(); err != nil {
					b.Fatal(err)
				}
			}
			cpu := processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bag(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perJob := float64(b.N * jobs)
			b.ReportMetric(float64((processCPU(b)-cpu).Microseconds())/perJob, "cpu-us/job")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/perJob, "wall-us/job")
		})
	}
}

// processCPU is the CPU time, user and system, the process has used.
func processCPU(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestGridHarnessWorkloads keeps the E7/F3 rig honest: both workloads
// run to Completed on the heterogeneous grid.
func TestGridHarnessWorkloads(t *testing.T) {
	h := newGridHarness(t, heterogeneousNodes(), scheduler.Greedy{})
	ctx := context.Background()
	if _, err := h.runBatch(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := h.runPipeline(ctx, 3); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationSweepMonotone checks the E8 trade-off itself: tighter
// thresholds notify more and track truth more closely.
func TestUtilizationSweepMonotone(t *testing.T) {
	loose, looseErr, err := utilizationSweep(0.25, 400)
	if err != nil {
		t.Fatal(err)
	}
	tight, tightErr, err := utilizationSweep(0.02, 400)
	if err != nil {
		t.Fatal(err)
	}
	if tight <= loose {
		t.Fatalf("notify counts: tight=%d loose=%d", tight, loose)
	}
	if tightErr >= looseErr {
		t.Fatalf("staleness: tight=%f loose=%f", tightErr, looseErr)
	}
}
