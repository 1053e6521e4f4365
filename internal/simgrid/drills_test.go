package simgrid

// Directed drills for the retry/conditional/preemption layer — the three
// edges named in the lifecycle rework, driven deliberately instead of
// waiting for the seed sweep to find them: a master crash between retry
// attempts must not refresh the budget, a preempted-but-acked set must
// survive a master crash while parked, and a run-on-failure cleanup job
// must still run once a partition that starved its dispatch heals. The
// retry storm joins them: the shape that hung before events carried an
// attempt identity.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/procspawn"
	"uvacg/internal/services/scheduler"
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

// sawSetEvent reports whether the observer saw a set-level event of the
// given status kind ("jobset:preempted", "jobset:completed", ...).
func sawSetEvent(c *Cluster, topic, kind string) bool {
	for _, ev := range c.Observer.Events() {
		if ev.Set == topic && ev.Kind == kind {
			return true
		}
	}
	return false
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

// TestPreemptedSetSurvivesMasterCrash: an interactive arrival preempts
// the tenant's running scavenger set mid-job; the master then dies. The
// preempted set was journaled back to Queued with its admission
// coordinates, so recovery must re-park it and the pump must eventually
// run it to completion — a preempted-but-acked set is never lost.
func TestPreemptedSetSurvivesMasterCrash(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Seed: 72, Nodes: 1, DataDir: t.TempDir(),
		Admission: &AdmissionConfig{TenantRunning: 1},
		Preempt:   true,
		// The scavenger's job computes for about a second on a quiet box;
		// the default 1.5 s watchdog fails it on a saturated one.
		JobTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("slow.app", procspawn.BuildScript("compute 400000", "exit 0"))
	c.Observer.Files.Publish("quick.app", procspawn.BuildScript("exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	scav := &scheduler.JobSetSpec{Name: "scav", Class: admission.ClassScavenger,
		Jobs: []scheduler.JobSpec{{Name: "s", Executable: "local://slow.app"}}}
	scavAck, err := c.Submit(ctx, scav)
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(15 * time.Second); countObserved(c, scavAck.Topic, "s", "started") == 0; {
		if time.Now().After(end) {
			t.Fatal("scavenger job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	inter := &scheduler.JobSetSpec{Name: "inter", Class: admission.ClassInteractive,
		Jobs: []scheduler.JobSpec{{Name: "i", Executable: "local://quick.app"}}}
	interAck, err := c.Submit(ctx, inter)
	if err != nil {
		t.Fatal(err)
	}

	for end := time.Now().Add(15 * time.Second); !sawSetEvent(c, scavAck.Topic, "jobset:preempted"); {
		if time.Now().After(end) {
			t.Fatal("scavenger set was never preempted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.CrashMaster()
	time.Sleep(50 * time.Millisecond)
	restartMaster(t, ctx, c)

	if err := c.AwaitQuiescence(40 * time.Second); err != nil {
		t.Fatalf("cluster never quiesced: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	for _, topic := range []string{scavAck.Topic, interAck.Topic} {
		v, ok := docFor(c, topic)
		if !ok {
			t.Fatalf("set (topic %s) lost", topic)
		}
		if v.Status != scheduler.SetCompleted {
			t.Fatalf("set %s status %q, want %q\n%s", v.Name, v.Status, scheduler.SetCompleted, explain(c, scavAck.Topic, interAck.Topic))
		}
	}
	if viol := CheckInvariants(c, &Scenario{Sets: []*scheduler.JobSetSpec{scav, inter}}); len(viol) > 0 {
		t.Fatalf("invariant violations: %v", viol)
	}
}

// TestCleanupRunsAfterPartitionHeals: the work job's node partitions,
// the watchdog fails the job, and the run-on-failure sweeper's gate
// opens — but every dispatch it tries dies on the cut wire, burning
// retry attempts. Once the partition heals inside the sweeper's budget
// it must still run: the set ends Failed with work Failed and the
// cleanup Completed, never stuck and never silently skipped.
func TestCleanupRunsAfterPartitionHeals(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Seed: 73, Nodes: 1, DataDir: t.TempDir(),
		JobTimeout: 400 * time.Millisecond,
	})
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
	// The watchdog (400ms) fails work behind the cut and the sweeper's
	// early dispatches die on it; heal inside its ~3s retry budget.
	time.Sleep(1200 * time.Millisecond)
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
	for _, d := range c.Dispatches() {
		if storm[d.Topic] {
			dispatches++
		}
	}
	if want := sets * (limit + 1); dispatches != want {
		t.Fatalf("storm dispatched %d times, want %d", dispatches, want)
	}
}
