package rig

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uvacg/bench/stats"
)

const (
	// grids is how many fresh grids a run measures, one after the other.
	// CPU per job differs by several percent between two launches of the
	// same daemons on the same box, so a run reports the median over
	// grids; setup_s is the median of their set-up times.
	grids = 4
	// warmupClients is the closed-loop client count of the warm-up.
	warmupClients = 2
	// readInterval paces the status reader: 100 reads a second.
	readInterval = 10 * time.Millisecond
	// maxReadsInFlight bounds the open-loop reader; it is far above what
	// a healthy master leaves outstanding at 100/s.
	maxReadsInFlight = 64
	// issueCap stops a run from issuing new sets once it has measured for
	// this many times its nominal length, so that a badly regressed grid
	// still ends inside the driver's per-run limit.
	issueCap = 6
)

// EndToEndNames are the metrics an untraced run reports, and
// PerLayerNames what a traced run adds from outside the daemons; the
// ledger's rows are ledger.Names. BENCHMARK.json lists exactly these.
var (
	EndToEndNames = []string{
		"setup_s", "jobs_per_s", "set_latency_p50_ms", "set_latency_p90_ms", "first_start_p50_ms",
		"cpu_ms_per_job", "rss_mib", "status_read_p50_us", "staged_mib_per_s",
	}
	PerLayerNames = []string{
		"status_read_p99_us",
		"gridmaster.cpu_ms_per_job", "gridnode.cpu_ms_per_job", "loadgen.cpu_ms_per_job",
		"gridmaster.rss_mib", "gridnode.rss_mib", "gridmaster.late_over_early", "gridmaster.rpcs_per_job",
		"scheduler.submit_mean_us", "execution.run_rpc_mean_us",
		"wsn.notify_in_per_job", "wsn.notify_out_per_job", "wsn.notify_mean_us",
		"nodeinfo.reports_per_job", "filesystem.upload_mean_us", "filesystem.wire_frac",
		"wal.commits_per_job", "wal.commit_mean_us", "wal.bytes_per_job",
		"loadgen.reordered_events", "loadgen.directory_lookups", "loadgen.traced_jobs_per_s", "loadgen.reader_late_p99_us",
		"loadgen.box_speed",
		"trace_overhead_frac", "gridsub.wall_ms",
		"phase.submit_ack_ms", "phase.ack_to_dispatch_ms", "phase.staging_ms", "phase.run_ms", "phase.hop_ms",
		"phase.exit_to_completed_ms", "phase.fetch_ms",
	}
)

// RunOptions describes one run: one workload, one seed, fresh daemons.
type RunOptions struct {
	Workload *Workload
	Seed     int64
	Seconds  int
	// Sets, when positive, replaces the run's shape with one grid timing
	// that many sets (the -smoke check); 0 derives the count from Seconds
	// and splits it over the usual number of grids.
	Sets   int
	Traced bool
	// BinDir holds gridmaster, gridnode and gridsub; WorkDir takes
	// scratch directories; TraceDir takes trace-<workload>.json.
	BinDir, WorkDir, TraceDir string
}

// Result is one run reduced to metrics.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Attempted and Failed count job sets, and failed_frac is their
	// quotient; the paced reader's status reads are counted apart, so that
	// hundreds of good reads cannot dilute a failed set.
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	ReadsAttempted int                `json:"reads_attempted"`
	ReadsFailed    int                `json:"reads_failed"`
	Failures       []string           `json:"failures,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
	// PerGrid holds each metric's value on every grid of the run, in
	// order; Metrics is their median.
	PerGrid map[string][]float64 `json:"per_grid"`
	// Samples says how many observations stand behind the percentiles.
	Samples map[string]int `json:"samples"`
}

// running is a grid that finished set-up.
type running struct {
	grid   *Grid
	client *Client
	jobs   int // jobs run on this grid so far (warm-up, parity)
}

func (r *running) close() {
	r.client.Close()
	r.grid.Kill()
}

// Run performs one run: it sets up `grids` fresh grids one after the
// other, times an equal share of the run's sets on each, and reports for
// every metric the median over the grids. The context cancels it
// (SIGINT); daemons are stopped and scratch removed on every return path.
func Run(ctx context.Context, o RunOptions) (*Result, error) {
	w := o.Workload
	res := &Result{Workload: w.Name, Seed: o.Seed, Traced: o.Traced, Metrics: map[string]float64{}, Samples: map[string]int{}}
	nGrids, perGrid := grids, max(w.TimedSets(o.Seconds)/grids, 2)
	if o.Sets > 0 {
		nGrids, perGrid = 1, o.Sets
	}

	samples := map[string][]float64{}
	for g := 0; g < nGrids; g++ {
		last := g == nGrids-1
		m, err := runGrid(ctx, o, res, g, perGrid, o.Traced && last)
		if err != nil {
			return nil, err
		}
		for name, v := range m {
			samples[name] = append(samples[name], v)
		}
	}
	for name, values := range samples {
		res.Metrics[name] = stats.Median(values)
	}
	if o.Traced && nGrids > 1 {
		res.Metrics["trace_overhead_frac"] = traceOverhead(samples["jobs_per_s"])
	}
	res.PerGrid = samples
	res.Samples["grids"] = nGrids
	res.Samples["sets_per_grid"] = perGrid
	return res, nil
}

// runGrid sets one grid up, times perGrid sets on it and tears it down.
// It returns the grid's end-to-end metrics and, when traced, its
// per-layer metrics; failures are counted into res.
func runGrid(ctx context.Context, o RunOptions, res *Result, g, perGrid int, traced bool) (map[string]float64, error) {
	w := o.Workload
	m := map[string]float64{}
	probe := startSpeedProbe()
	defer probe.Stop()
	setupStart := time.Now()
	cur, err := setUp(ctx, o, g, traced)
	if err != nil {
		return nil, fmt.Errorf("set-up %d of %s: %w", g+1, w.Name, err)
	}
	setupEnd := time.Now()
	m["setup_s"] = setupEnd.Sub(setupStart).Seconds() * probe.speedIndex(setupStart, setupEnd)
	defer func() {
		if cur != nil {
			cur.close()
		}
	}()
	var gridsubMs float64
	if traced {
		if gridsubMs, err = gridsubParity(ctx, o, cur); err != nil {
			return nil, fmt.Errorf("gridsub parity: %w", err)
		}
	}

	// The timed phase.
	cur.client.ForgetNewest()
	sets := make([]SetResult, perGrid)
	issued := make([]bool, perGrid)
	var next atomic.Int64
	cpuBefore, err := sampleCPU(cur.grid)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPU()
	start := time.Now()
	stopIssuing := start.Add(time.Duration(issueCap*max(o.Seconds, 1)) * time.Second / time.Duration(grids))
	var wg sync.WaitGroup
	for s := 0; s < w.Submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(stopIssuing) {
				i := int(next.Add(1)) - 1
				if i >= perGrid {
					return
				}
				issued[i] = true
				sets[i] = cur.client.RunSet(ctx, w.Plan(o.Seed, g*perGrid+i))
			}
		}()
	}
	var reads readerResult
	readerCtx, stopReader := context.WithCancel(ctx)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		reads = pacedReader(readerCtx, cur.client, w.JobsPerSet, start)
	}()
	wg.Wait()
	stopReader()
	<-readerDone
	end := time.Now()
	wall := end.Sub(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Everything below is reduced as measured; the deferred call rewrites
	// the durations and rates in m to the reference speed on the way out.
	speed := probe.speedIndex(start, end)
	m["loadgen.box_speed"] = speed
	defer scaleToReference(m, speed)
	selfAfter := selfCPU()
	cpuAfter, err := sampleCPU(cur.grid)
	if err != nil {
		return nil, err
	}

	// Reduce.
	var total, firstStart, completedAt []float64
	var okJobs int
	var staged int64
	for i := range sets {
		res.Attempted++
		switch {
		case !issued[i]:
			res.fail(fmt.Sprintf("set %d of grid %d not issued: the grid ran past %d× its nominal length", i, g+1, issueCap))
		case sets[i].Err != "":
			res.fail(sets[i].Set + ": " + sets[i].Err)
		default:
			total = append(total, sets[i].TotalMs)
			firstStart = append(firstStart, sets[i].FirstStartMs)
			completedAt = append(completedAt, float64(sets[i].SubmitUnixNs-start.UnixNano())/1e6+sets[i].TotalMs)
			okJobs += w.JobsPerSet
			staged += sets[i].StagedBytes
		}
	}
	res.ReadsAttempted += reads.attempted
	res.ReadsFailed += reads.failed
	for _, f := range reads.failures {
		res.Failures = keepFailure(res.Failures, f)
	}
	if okJobs == 0 {
		return nil, fmt.Errorf("%s: none of %d sets verified; first failures: %v", w.Name, perGrid, res.Failures)
	}
	cur.jobs += okJobs
	jobs := float64(okJobs)
	m["jobs_per_s"] = jobs / wall.Seconds()
	m["set_latency_p50_ms"] = stats.Percentile(total, 50)
	m["set_latency_p90_ms"] = stats.Percentile(total, 90)
	m["first_start_p50_ms"] = stats.Percentile(firstStart, 50)
	m["staged_mib_per_s"] = float64(staged) / (1 << 20) / wall.Seconds()
	m["status_read_p50_us"] = stats.Percentile(reads.latencyUs, 50)
	m["status_read_p99_us"] = stats.Percentile(reads.latencyUs, 99)
	res.Samples["status_reads_per_grid"] = len(reads.latencyUs)
	roleCPU := map[string]float64{} // ms, by daemon role
	roleRSS := map[string]float64{} // MiB
	for i, d := range cur.grid.Daemons() {
		roleCPU[d.Role] += float64(cpuAfter[i].CPU-cpuBefore[i].CPU) / float64(time.Millisecond)
		roleRSS[d.Role] += float64(cpuAfter[i].HWMKiB) / 1024
	}
	m["cpu_ms_per_job"] = (roleCPU["gridmaster"] + roleCPU["gridnode"]) / jobs
	m["rss_mib"] = roleRSS["gridmaster"] + roleRSS["gridnode"]
	if !traced {
		return m, nil
	}

	// Per-layer numbers: outside-in from /proc, the daemons' -metrics
	// dumps and the client's arrival times.
	m["gridmaster.cpu_ms_per_job"] = roleCPU["gridmaster"] / jobs
	m["gridnode.cpu_ms_per_job"] = roleCPU["gridnode"] / jobs
	m["loadgen.cpu_ms_per_job"] = float64(selfAfter-selfBefore) / float64(time.Millisecond) / jobs
	m["gridmaster.rss_mib"] = roleRSS["gridmaster"]
	m["gridnode.rss_mib"] = roleRSS["gridnode"]
	m["gridmaster.late_over_early"] = lateOverEarly(completedAt)
	m["loadgen.traced_jobs_per_s"] = m["jobs_per_s"]
	m["loadgen.reader_late_p99_us"] = stats.Percentile(reads.lateUs, 99)
	m["gridsub.wall_ms"] = gridsubMs
	phaseMetrics(m, sets, w.Chain)

	var walBytes int64
	for _, d := range cur.grid.Daemons() {
		if d.DataDir != "" {
			b, err := DirBytes(d.DataDir)
			if err != nil {
				return nil, err
			}
			walBytes += b
		}
	}
	// gridnode prints its dump only after its 5 s HTTP drain.
	logs, err := cur.grid.Shutdown(20 * time.Second)
	cur.client.Close()
	gridJobs := float64(cur.jobs)
	masterName := cur.grid.Master.Name
	cur = nil
	if err != nil {
		return nil, err
	}
	if err := dumpMetrics(m, logs, masterName, gridJobs, walBytes); err != nil {
		return nil, err
	}
	if o.TraceDir != "" {
		if err := writeTrace(filepath.Join(o.TraceDir, "trace-"+w.Name+".json"), sets); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// maxFailuresKept bounds the failure messages a Result carries.
const maxFailuresKept = 5

func (r *Result) fail(msg string) {
	r.Failed++
	r.Failures = keepFailure(r.Failures, msg)
}

func keepFailure(kept []string, msg string) []string {
	if len(kept) < maxFailuresKept {
		kept = append(kept, msg)
	}
	return kept
}

// setUp is what setup_s times: launch gridmaster, wait until both nodes
// are registered, start the client, run the warm-up sets.
func setUp(ctx context.Context, o RunOptions, attempt int, traced bool) (*running, error) {
	grid, err := StartGrid(ctx, GridOptions{BinDir: o.BinDir, WorkDir: o.WorkDir, Durable: o.Workload.Durable, Traced: traced})
	if err != nil {
		return nil, err
	}
	client, err := NewClient(grid.MasterURL, traced)
	if err != nil {
		grid.Kill()
		return nil, err
	}
	r := &running{grid: grid, client: client}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, warmupClients)
	for s := 0; s < warmupClients; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.Workload.WarmupSets {
					return
				}
				// Each set-up attempt warms up on its own sets.
				idx := warmupBase*(attempt+1) + i
				if sr := client.RunSet(ctx, o.Workload.Plan(o.Seed, idx)); sr.Err != "" {
					errs <- sr.Set + ": " + sr.Err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		r.close()
		return nil, fmt.Errorf("warm-up set failed: %s", msg)
	default:
	}
	r.jobs = o.Workload.WarmupSets * o.Workload.JobsPerSet
	return r, nil
}

// gridsubParity runs one chain8 set through the load generator and the
// same set, written out as a .jobset, through the shipped gridsub binary
// against the same daemons, and requires both to fetch the planned
// bytes. It returns gridsub's wall time.
func gridsubParity(ctx context.Context, o RunOptions, r *running) (float64, error) {
	chain, _ := WorkloadByName("chain8")
	plan := chain.Plan(o.Seed, warmupBase-1)
	if sr := r.client.RunSet(ctx, plan); sr.Err != "" {
		return 0, fmt.Errorf("load generator: %s", sr.Err)
	}
	dir, err := os.MkdirTemp(r.grid.dir, "gridsub-")
	if err != nil {
		return 0, err
	}
	jobset, err := plan.WriteJobSetFile(dir)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, setDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(o.BinDir, "gridsub"), "-master", r.grid.MasterURL, "-jobset", jobset, "-out", dir, "-timeout", setDeadline.String())
	start := time.Now()
	out, err := cmd.CombinedOutput()
	wallMs := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return 0, fmt.Errorf("gridsub: %v: %s", err, out)
	}
	for _, want := range plan.Outputs {
		got, err := os.ReadFile(filepath.Join(dir, want.Job+"."+want.File))
		if err != nil {
			return 0, fmt.Errorf("gridsub fetched nothing for %s/%s: %v: %s", want.Job, want.File, err, out)
		}
		if !bytes.Equal(got, want.Want) {
			return 0, fmt.Errorf("gridsub's %s/%s differs from the load generator's", want.Job, want.File)
		}
	}
	r.jobs += 2 * chain.JobsPerSet
	return wallMs, nil
}

// sampleCPU reads every daemon's /proc entry, in Daemons() order.
func sampleCPU(g *Grid) ([]ProcStat, error) {
	var out []ProcStat
	for _, d := range g.Daemons() {
		ps, err := ReadProcStat(d.Pid())
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", d.Role, d.Name, err)
		}
		out = append(out, ps)
	}
	return out, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readerResult is what the paced status reader saw.
type readerResult struct {
	attempted, failed int
	failures          []string
	latencyUs         []float64 // due time → reply checked
	lateUs            []float64 // due time → request sent
}

// pacedReader issues a JobState read of the newest acked set every
// readInterval, open loop: reads are launched on schedule whether or not
// earlier ones have returned, and each is timed from when it was due.
func pacedReader(ctx context.Context, c *Client, wantJobs int, start time.Time) readerResult {
	var mu sync.Mutex
	var out readerResult
	var wg sync.WaitGroup
	slots := make(chan struct{}, maxReadsInFlight)
	for i := 1; ; i++ {
		due := start.Add(time.Duration(i) * readInterval)
		select {
		case <-ctx.Done():
			wg.Wait()
			return out
		case <-time.After(time.Until(due)):
		}
		target := c.Newest()
		if target.IsZero() {
			continue // nothing acked yet
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			sent := time.Now()
			states, err := JobStates(ctx, c.tc, target)
			done := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if ctx.Err() != nil {
				return // cut off by the end of the run, not a failed read
			}
			out.attempted++
			switch {
			case err != nil:
				out.failed++
				out.failures = keepFailure(out.failures, "status read: "+err.Error())
			case len(states) != wantJobs:
				out.failed++
				out.failures = keepFailure(out.failures, fmt.Sprintf("status read listed %d jobs, want %d", len(states), wantJobs))
			default:
				out.latencyUs = append(out.latencyUs, float64(done.Sub(due))/float64(time.Microsecond))
				out.lateUs = append(out.lateUs, float64(sent.Sub(due))/float64(time.Microsecond))
			}
		}()
	}
}

// traceOverhead is the share of throughput tracing costs: 1 − the traced
// grid's jobs/s (the run's last) ÷ the median jobs/s of the untraced
// grids the same run measured just before it. Only the last grid runs
// with -metrics and span bookkeeping, so the run's own median jobs_per_s
// is mostly untraced and says nothing about tracing.
func traceOverhead(jobsPerS []float64) float64 {
	last := len(jobsPerS) - 1
	if last < 1 {
		return 0
	}
	untraced := stats.Median(jobsPerS[:last])
	if untraced == 0 {
		return 0
	}
	return 1 - jobsPerS[last]/untraced
}

// lateOverEarly divides the completion rate of the last quarter of sets
// by that of the first quarter: below 1, the master slowed as it
// accumulated finished sets.
func lateOverEarly(completedAtMs []float64) float64 {
	sort.Float64s(completedAtMs)
	n := len(completedAtMs)
	q := n / 4
	if q < 2 {
		return 0
	}
	early := completedAtMs[q-1] // from the start of the timed phase
	late := completedAtMs[n-1] - completedAtMs[n-1-q]
	if early <= 0 || late <= 0 {
		return 0
	}
	return early / late
}

// phaseMetrics reduces the client-observed arrival times to one median
// per phase. A phase whose two events arrived in reverse order is
// clamped to 0 and counted.
func phaseMetrics(m map[string]float64, sets []SetResult, chain bool) {
	phases := map[string][]float64{}
	reordered := 0
	lookups := 0
	wire, inputs := 0, 0
	span := func(name string, from, to float64) {
		if from == 0 || to == 0 {
			return // an event that never arrived bounds no phase
		}
		if to < from {
			reordered++
			to = from
		}
		phases[name] = append(phases[name], to-from)
	}
	for _, s := range sets {
		if s.Err != "" {
			continue
		}
		lookups += s.Lookups
		phases["submit_ack"] = append(phases["submit_ack"], s.AckMs)
		phases["fetch"] = append(phases["fetch"], s.TotalMs-s.CompletedMs)
		var firstDir, lastExit float64
		for i, j := range s.Jobs {
			if j.DirectoryMs != 0 && (firstDir == 0 || j.DirectoryMs < firstDir) {
				firstDir = j.DirectoryMs
			}
			lastExit = max(lastExit, j.ExitedMs)
			span("staging", j.DirectoryMs, j.StartedMs)
			span("run", j.StartedMs, j.ExitedMs)
			// In the chain workloads job i consumes job i−1's output.
			if i > 0 && chain {
				span("hop", s.Jobs[i-1].ExitedMs, j.DirectoryMs)
				if j.Node != "" && s.Jobs[i-1].Node != "" {
					inputs++
					if j.Node != s.Jobs[i-1].Node {
						wire++
					}
				}
			}
		}
		span("ack_to_dispatch", s.AckMs, firstDir)
		span("exit_to_completed", lastExit, s.CompletedMs)
	}
	for _, name := range []string{"submit_ack", "ack_to_dispatch", "staging", "run", "hop", "exit_to_completed", "fetch"} {
		m["phase."+name+"_ms"] = stats.Percentile(phases[name], 50)
	}
	m["loadgen.reordered_events"] = float64(reordered)
	m["loadgen.directory_lookups"] = float64(lookups)
	if inputs > 0 {
		m["filesystem.wire_frac"] = float64(wire) / float64(inputs)
	} else {
		m["filesystem.wire_frac"] = 0
	}
}

// dumpMetrics fills the metrics read from the daemons' -metrics dumps.
// gridJobs is every job the grid ran (warm-up and parity included),
// which is what the dumps' counts cover.
func dumpMetrics(m map[string]float64, logs map[string][]byte, master string, gridJobs float64, walBytes int64) error {
	var masterDump Dump
	nodes := Dump{}
	var walCalls int64
	var walTotal time.Duration
	for name, log := range logs {
		d, err := ParseDump(log)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		calls, total := d.Sum(func(k DumpKey) bool { return k.Path == "/wal" && k.Action == "commit" })
		walCalls += calls
		walTotal += total
		if name == master {
			masterDump = d
			continue
		}
		for k, r := range d {
			// Merge the nodes call-weighted.
			prev := nodes[k]
			merged := DumpRow{Calls: prev.Calls + r.Calls}
			if merged.Calls > 0 {
				merged.Mean = (prev.Total() + r.Total()) / time.Duration(merged.Calls)
			}
			nodes[k] = merged
		}
	}
	if masterDump == nil {
		return fmt.Errorf("rig: no dump for %s", master)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	rpcs, _ := masterDump.Sum(func(k DumpKey) bool { return k.Path != "/wal" })
	m["gridmaster.rpcs_per_job"] = float64(rpcs) / gridJobs
	m["scheduler.submit_mean_us"] = us(masterDump.Row("/SchedulerService", "Submit").Mean)
	m["execution.run_rpc_mean_us"] = us(nodes.Row("/ExecutionService", "Run").Mean)
	in := masterDump.Row("/NotificationBroker", "Notify")
	m["wsn.notify_in_per_job"] = float64(in.Calls) / gridJobs
	m["wsn.notify_mean_us"] = us(in.Mean)
	out, _ := masterDump.Sum(func(k DumpKey) bool {
		return k.Path != "/NotificationBroker" && strings.HasSuffix(k.Action, "/Notify")
	})
	m["wsn.notify_out_per_job"] = float64(out) / gridJobs
	m["nodeinfo.reports_per_job"] = float64(masterDump.Row("/NodeInfoService", "Report").Calls) / gridJobs
	m["filesystem.upload_mean_us"] = us(nodes.Row("/FileSystemService", "Upload").Mean)
	m["wal.commits_per_job"] = float64(walCalls) / gridJobs
	m["wal.commit_mean_us"] = 0
	if walCalls > 0 {
		m["wal.commit_mean_us"] = us(walTotal / time.Duration(walCalls))
	}
	m["wal.bytes_per_job"] = float64(walBytes) / gridJobs
	return nil
}

// writeTrace writes one span tree per set: the set is the root, its
// phases and jobs are children, and each job's staging and run are the
// job's children. Times are milliseconds from the set's Submit.
func writeTrace(path string, sets []SetResult) error {
	type span struct {
		Name    string  `json:"name"`
		Parent  string  `json:"parent,omitempty"`
		StartMs float64 `json:"start_ms"`
		EndMs   float64 `json:"end_ms"`
		Node    string  `json:"node,omitempty"`
	}
	type tree struct {
		Set          string `json:"set"`
		Topic        string `json:"topic"`
		SubmitUnixNs int64  `json:"submit_unix_ns"`
		Err          string `json:"err,omitempty"`
		Spans        []span `json:"spans"`
	}
	trees := make([]tree, 0, len(sets))
	for _, s := range sets {
		t := tree{Set: s.Set, Topic: s.Topic, SubmitUnixNs: s.SubmitUnixNs, Err: s.Err}
		t.Spans = append(t.Spans,
			span{Name: "set", EndMs: s.TotalMs},
			span{Name: "submit", Parent: "set", EndMs: s.AckMs},
			span{Name: "fetch", Parent: "set", StartMs: s.CompletedMs, EndMs: s.TotalMs},
		)
		for _, j := range s.Jobs {
			job := "job/" + j.Name
			t.Spans = append(t.Spans,
				span{Name: job, Parent: "set", StartMs: j.DirectoryMs, EndMs: j.ExitedMs, Node: j.Node},
				span{Name: job + "/staging", Parent: job, StartMs: j.DirectoryMs, EndMs: j.StartedMs},
				span{Name: job + "/run", Parent: job, StartMs: j.StartedMs, EndMs: j.ExitedMs},
			)
		}
		trees = append(trees, t)
	}
	data, err := json.Marshal(trees)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
