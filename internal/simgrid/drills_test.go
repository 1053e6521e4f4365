package simgrid

// Directed drills for the retry/conditional layer and master restarts,
// driven deliberately instead of waiting for the seed sweep to find them: a
// master crash between retry attempts must not refresh the budget, a
// restarted master must run both the set it was running and a new one on a
// machine the dead incarnation's process still occupies, and a
// run-on-failure cleanup job must still run once a partition that starved
// its dispatch heals. The retry storm joins them: the shape that hung before
// events carried an attempt identity.

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wsrf"
)

// countObserved tallies observer events on one set topic by kind+job.
func countObserved(c *Cluster, topic, job, kind string) int {
	n := 0
	for _, ev := range c.Observer.Events() {
		if ev.Set == topic && ev.Job == job && ev.Kind == kind {
			n++
		}
	}
	return n
}

// explain is what a drill prints when a set ends wrong: each set's jobs as
// journaled, what the observer heard on its topic and why, and the
// master's placement ledger and unfinished work.
func explain(c *Cluster, topics ...string) string {
	var b strings.Builder
	for _, topic := range topics {
		v, _ := docFor(c, topic)
		fmt.Fprintf(&b, "set %s (%s) %s\n", v.Name, topic, v.Status)
		for _, j := range v.Jobs {
			fmt.Fprintf(&b, "  job %s %s node=%q attempt=%d\n", j.Name, j.Status, j.Node, j.Attempt)
		}
		for _, ev := range c.Observer.Events() {
			if ev.Set == topic {
				fmt.Fprintf(&b, "  event %s/%s %q\n", ev.Job, ev.Kind, ev.Detail)
			}
		}
	}
	ss := c.Scheduler()
	fmt.Fprintf(&b, "master: placed %v, in flight %+v", ss.Placed(), ss.InFlight())
	return b.String()
}

// TestCrashBetweenRetryAttemptsKeepsBudget: the first attempt fails, the
// retry is booked (attempt=1 journaled), and the master dies inside the
// backoff window. The recovered run must resume with the consumed budget:
// 1+Limit attempts in all, never a fresh Limit+1 after the crash, and the
// document ends at attempt == Limit.
//
// The budget counts attempts, not process starts (jobset.go, fail): a
// dispatch that never reached a node spends one like any other, so a job
// starts at most 1+Limit times — exactly that often on a quiet box, once
// fewer for every dispatch the restarted master could not deliver, which
// on a loaded one happens by itself about 1 run in 80. The second case
// forces it: the restarted master is cut off from the node until its
// first dispatch has failed and been journaled.
func TestCrashBetweenRetryAttemptsKeepsBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cut       bool // the recovered run's first dispatch dies on the wire
		maxStarts int
	}{
		{"every dispatch delivered", false, 3},
		{"dispatch error straight after the restart", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{Seed: 71, Nodes: 1, DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Observer.Files.Publish("flaky.app", procspawn.BuildScript("exit 1"))
			spec := &scheduler.JobSetSpec{Name: "retrycrash", Jobs: []scheduler.JobSpec{{
				Name:       "f",
				Executable: "local://flaky.app",
				Retry:      scheduler.RetryPolicy{Limit: 2, Backoff: 800 * time.Millisecond},
			}}}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			ack, err := c.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			awaitRetries := func(n int) {
				t.Helper()
				for end := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
					if v, ok := docFor(c, ack.Topic); ok {
						if jv := v.Job("f"); jv != nil && jv.Attempt >= n {
							return
						}
					}
					if time.Now().After(end) {
						t.Fatalf("retry %d never journaled", n)
					}
				}
			}

			// Wait until the failed first attempt is journaled, then crash while
			// the 800ms backoff timer is still pending (it dies with the
			// incarnation — recovery re-dispatches without it).
			awaitRetries(1)
			c.CrashMaster()
			time.Sleep(50 * time.Millisecond)
			if tc.cut {
				c.Chaos.Enable(true)
				c.Chaos.Partition(MasterHost, "node-1")
			}
			restartMaster(t, ctx, c)
			if tc.cut {
				// Heal inside the backoff the failed dispatch booked.
				awaitRetries(2)
				c.Chaos.Heal(MasterHost, "node-1")
			}

			if err := c.AwaitQuiescence(30 * time.Second); err != nil {
				t.Fatalf("cluster never quiesced: %v", err)
			}
			time.Sleep(300 * time.Millisecond)
			c.Chaos.Enable(false)

			v, ok := docFor(c, ack.Topic)
			if !ok {
				t.Fatalf("set (topic %s) lost across crash", ack.Topic)
			}
			if v.Status != scheduler.SetFailed {
				t.Fatalf("set status %q, want %q", v.Status, scheduler.SetFailed)
			}
			jv := v.Job("f")
			if jv == nil || jv.Status != scheduler.JobFailed {
				t.Fatalf("job view %+v, want Failed", jv)
			}
			if jv.Attempt != 2 {
				t.Fatalf("persisted attempt = %d, want 2 (budget must survive the crash)", jv.Attempt)
			}
			// Starts are counted as distinct job-process EPRs among started
			// events: the post-crash re-subscription makes event *delivery*
			// at-least-once, and the crashed incarnation's surviving backoff
			// timer books a doomed dispatch record before its fenced Run RPC
			// fails — neither raw count equals process starts, distinct EPRs do.
			started := map[string]bool{}
			for _, ev := range c.Observer.Events() {
				if ev.Set == ack.Topic && ev.Job == "f" && ev.Kind == "started" && ev.JobEPR != "" {
					started[ev.JobEPR] = true
				}
			}
			if n := len(started); n < 1 || n > tc.maxStarts {
				t.Fatalf("job started %d times, want 1..%d — a crash must not refresh the retry budget", n, tc.maxStarts)
			}
			if viol := CheckInvariants(c, &Scenario{Sets: []*scheduler.JobSetSpec{spec}}); len(viol) > 0 {
				t.Fatalf("invariant violations: %v", viol)
			}
		})
	}
}

// TestMasterCrashOverABusyMachine: on a one-node grid, a set's job is
// running when the master is killed, and a one-shot set is submitted as
// soon as the master is back. The restarted master's placement ledger is
// empty and the machine is still busy with the dead incarnation's process;
// both sets must still reach Completed.
func TestMasterCrashOverABusyMachine(t *testing.T) {
	// The long job computes for about a second on a quiet box, longer on
	// a saturated one: the watchdog finds it in the machine's renewals and
	// waits on.
	c, err := NewCluster(ClusterConfig{Seed: 72, Nodes: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("slow.app", procspawn.BuildScript("compute 400000", "exit 0"))
	c.Observer.Files.Publish("quick.app", procspawn.BuildScript("exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	long := &scheduler.JobSetSpec{Name: "long", Jobs: []scheduler.JobSpec{{Name: "s", Executable: "local://slow.app"}}}
	longAck, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(15 * time.Second); countObserved(c, longAck.Topic, "s", "started") == 0; {
		if time.Now().After(end) {
			t.Fatal("the long job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.CrashMaster()
	time.Sleep(50 * time.Millisecond)
	restartMaster(t, ctx, c)

	quick := &scheduler.JobSetSpec{Name: "quick", Jobs: []scheduler.JobSpec{{Name: "i", Executable: "local://quick.app"}}}
	quickAck, err := c.Submit(ctx, quick)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.AwaitQuiescence(40 * time.Second); err != nil {
		t.Fatalf("cluster never quiesced: %v\n%s", err, explain(c, longAck.Topic, quickAck.Topic))
	}
	time.Sleep(300 * time.Millisecond)

	for _, topic := range []string{longAck.Topic, quickAck.Topic} {
		v, ok := docFor(c, topic)
		if !ok {
			t.Fatalf("set (topic %s) lost", topic)
		}
		if v.Status != scheduler.SetCompleted {
			t.Fatalf("set %s status %q, want %q\n%s", v.Name, v.Status, scheduler.SetCompleted, explain(c, longAck.Topic, quickAck.Topic))
		}
	}
	if viol := CheckInvariants(c, &Scenario{Sets: []*scheduler.JobSetSpec{long, quick}}); len(viol) > 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
}

// lockedBuffer is a log destination the drill reads while the grid
// writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSilentMachineFailsOverToTheSurvivor: one of two machines crashes
// while sets with a retry to spare run on both, and never comes back. It
// stops renewing, its lease lapses, and the watchdog fails every attempt
// it held, naming it; each set then completes on the survivor.
func TestSilentMachineFailsOverToTheSurvivor(t *testing.T) {
	logs := new(lockedBuffer)
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.MultiWriter(log.Writer(), logs))

	c, err := NewCluster(ClusterConfig{Seed: 74, Nodes: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second on a quiet core: the crash lands while both machines run.
	c.Observer.Files.Publish("work.app", procspawn.BuildScript("compute 400000", "exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var specs []*scheduler.JobSetSpec
	var acks []Ack
	for i := 0; i < 3; i++ {
		spec := &scheduler.JobSetSpec{Name: fmt.Sprintf("failover-%d", i)}
		for j := 0; j < 2; j++ {
			spec.Jobs = append(spec.Jobs, scheduler.JobSpec{Name: fmt.Sprintf("w%d", j), Executable: "local://work.app",
				Retry: scheduler.RetryPolicy{Limit: 1, Backoff: 100 * time.Millisecond}})
		}
		ack, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		specs, acks = append(specs, spec), append(acks, ack)
	}
	// Every job runs before the crash: what fails over is the watchdog's
	// doing, not a dispatch that met the dead machine.
	running := func() bool {
		for i, ack := range acks {
			for _, j := range specs[i].Jobs {
				if countObserved(c, ack.Topic, j.Name, "started") == 0 {
					return false
				}
			}
		}
		return c.busy("node-1") && c.busy("node-2")
	}
	for end := time.Now().Add(15 * time.Second); !running(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the work never ran on both machines")
		}
	}
	if err := c.CrashNode("node-1"); err != nil {
		t.Fatal(err)
	}

	topics := make([]string, len(acks))
	for i, ack := range acks {
		topics[i] = ack.Topic
	}
	if err := c.AwaitQuiescence(40 * time.Second); err != nil {
		t.Fatalf("cluster never quiesced: %v\n%s", err, explain(c, topics...))
	}
	for _, topic := range topics {
		v, _ := docFor(c, topic)
		if v.Status != scheduler.SetCompleted {
			t.Fatalf("set %s %q, want %q\n%s", v.Name, v.Status, scheduler.SetCompleted, explain(c, topics...))
		}
		for _, j := range v.Jobs {
			if j.Node != "node-2" {
				t.Fatalf("job %s/%s completed on %q, not the survivor\n%s", v.Name, j.Name, j.Node, explain(c, topics...))
			}
		}
	}
	// The watchdog's verdicts on these sets, as the master logs them.
	var verdicts []string
	for _, line := range strings.Split(logs.String(), "\n") {
		for _, ack := range acks {
			if strings.Contains(line, "job set "+ack.Set.Property(wsrf.QResourceID)+":") && strings.Contains(line, "no completion within") {
				verdicts = append(verdicts, line)
			}
		}
	}
	if len(verdicts) == 0 {
		t.Fatal("the watchdog failed no attempt of the crashed machine")
	}
	for _, line := range verdicts {
		if !strings.Contains(line, "machine node-1 ") {
			t.Errorf("a verdict does not name the silent machine: %s", line)
		}
	}
	if viol := CheckInvariants(c, &Scenario{Sets: specs}); len(viol) > 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
}

// TestMasterRestartOnAnEmptyCatalog: the master restarts on a fresh data
// dir while both machines are idle, so it knows no machine and no machine
// has a threshold to cross. Their renewals fill the catalog, and a set
// submitted the moment the master is back completes within one renewal
// period plus its run time: its dispatch waits for a non-empty catalog
// instead of failing with "no processors available".
func TestMasterRestartOnAnEmptyCatalog(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 61, Nodes: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("quick.app", procspawn.BuildScript("write out.txt ok", "exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c.CrashMaster()
	if err := os.RemoveAll(filepath.Join(c.cfg.DataDir, MasterHost)); err != nil {
		t.Fatal(err)
	}
	restartMaster(t, ctx, c)
	if procs, err := c.Master().m.NIS.Processors(); err != nil || len(procs) != 0 {
		t.Fatalf("the master on a fresh data dir lists %+v, %v", procs, err)
	}
	start := time.Now()
	spec := &scheduler.JobSetSpec{Name: "after", Jobs: []scheduler.JobSpec{{Name: "q", Executable: "local://quick.app", Outputs: []string{"out.txt"}}}}
	ack, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for !c.Observer.TerminalSets()[ack.Topic] {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("no terminal event in 10 s\n%s", explain(c, ack.Topic))
		}
		time.Sleep(5 * time.Millisecond)
	}
	took := time.Since(start)
	if v, _ := docFor(c, ack.Topic); v.Status != scheduler.SetCompleted {
		t.Fatalf("set %q, want %q\n%s", v.Status, scheduler.SetCompleted, explain(c, ack.Topic))
	}
	// A renewal is due at most one period after the last Report, plus the
	// sampling tick it rides; the job itself takes milliseconds.
	if limit := nodeinfo.RenewEvery + 500*time.Millisecond; took > limit {
		t.Fatalf("the set took %v after the restart, over one renewal period and its run time (%v)", took, limit)
	}
	t.Logf("the set completed %v after the restarted master took it", took)
	if viol := CheckInvariants(c, &Scenario{Sets: []*scheduler.JobSetSpec{spec}}); len(viol) > 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
}

// TestCleanupRunsAfterPartitionHeals: the work job's node partitions,
// the watchdog fails the job, and the run-on-failure sweeper's gate
// opens — but every dispatch it tries finds no machine, burning retry
// attempts. Once the partition heals inside the sweeper's budget
// it must still run: the set ends Failed with work Failed and the
// cleanup Completed, never stuck and never silently skipped.
func TestCleanupRunsAfterPartitionHeals(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 73, Nodes: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("stuck.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	c.Observer.Files.Publish("clean.app", procspawn.BuildScript("exit 0"))
	spec := &scheduler.JobSetSpec{Name: "cutclean", Jobs: []scheduler.JobSpec{
		{Name: "work", Executable: "local://stuck.app"},
		{Name: "sweep", Executable: "local://clean.app",
			After: []string{"work"}, RunOn: scheduler.RunOnFailure,
			Retry: scheduler.RetryPolicy{Limit: 6, Backoff: 500 * time.Millisecond}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ack, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(15 * time.Second); countObserved(c, ack.Topic, "work", "started") == 0; {
		if time.Now().After(end) {
			t.Fatal("work never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	c.Chaos.Enable(true)
	c.Chaos.PartitionBoth("node-1", MasterHost)
	// Once the machine's lease lapses behind the cut, the watchdog fails
	// work; the sweeper's early dispatches find no machine. Heal a second
	// after, inside its retry budget.
	for end := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if v, ok := docFor(c, ack.Topic); ok && v.Job("work") != nil && v.Job("work").Status == scheduler.JobFailed {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the watchdog never failed work behind the cut")
		}
	}
	time.Sleep(time.Second)
	c.Chaos.Heal("node-1", MasterHost)
	c.Chaos.Heal(MasterHost, "node-1")

	if err := c.AwaitQuiescence(30 * time.Second); err != nil {
		t.Fatalf("cluster never quiesced: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	c.Chaos.Enable(false)

	v, ok := docFor(c, ack.Topic)
	if !ok {
		t.Fatalf("set (topic %s) has no document", ack.Topic)
	}
	if v.Status != scheduler.SetFailed {
		t.Fatalf("set status %q, want %q", v.Status, scheduler.SetFailed)
	}
	if jv := v.Job("work"); jv == nil || jv.Status != scheduler.JobFailed {
		t.Fatalf("work view %+v, want Failed", jv)
	}
	if jv := v.Job("sweep"); jv == nil || jv.Status != scheduler.JobCompleted {
		t.Fatalf("sweep view %+v, want Completed — the cleanup must run once the partition heals", jv)
	}
	if viol := CheckInvariants(c, &Scenario{Sets: []*scheduler.JobSetSpec{spec}}); len(viol) > 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
}

// TestRetryStormAccountsEveryDispatch: eight single-job sets whose job
// fails every attempt, each with an immediate-backoff budget of two
// retries, pushed through a four-node journaled grid at once. One set
// per job, because fail-fast is part of the lifecycle: a sibling's
// permanent failure would cancel a parked retry, and the storm must
// burn every budget in full. Before events carried an attempt identity
// a late `started` of attempt N was adopted by attempt N+1 and a set
// hung short of Failed in about half the runs on a small box; now
// every set must fail, with exactly limit+1 committed dispatches each.
func TestRetryStormAccountsEveryDispatch(t *testing.T) {
	const sets, limit = 8, 2
	c, err := NewCluster(ClusterConfig{Seed: 16, Nodes: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("fail.app", procspawn.BuildScript("exit 1"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	storm := make(map[string]bool, sets)
	for i := 0; i < sets; i++ {
		ack, err := c.Submit(ctx, &scheduler.JobSetSpec{Name: fmt.Sprintf("storm-%03d", i), Jobs: []scheduler.JobSpec{{
			Name:       "f",
			Executable: "local://fail.app",
			Retry:      scheduler.RetryPolicy{Limit: limit},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		storm[ack.Topic] = true
	}
	for topic := range storm {
		waitDocStatus(t, c, topic, scheduler.SetFailed, 60*time.Second)
	}
	dispatches := 0
	c.mu.Lock()
	for _, topic := range c.runs {
		if storm[topic] {
			dispatches++
		}
	}
	c.mu.Unlock()
	if want := sets * (limit + 1); dispatches != want {
		t.Fatalf("storm dispatched %d times, want %d", dispatches, want)
	}
}
