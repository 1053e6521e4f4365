package scheduler

// Tests for the retry/conditional layer built on the corrected terminal
// transitions: per-job retry budgets with backoff and run-on-failure/always
// gates.

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/wsrf"
)

// TestRetryExhaustsBudgetThenFails: a job with Retry{Limit:2} is
// dispatched three times (one initial + two retries), the persisted
// attempt counter records the consumed budget, and only then does the
// set fail.
func TestRetryExhaustsBudgetThenFails(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("flaky.app", procspawn.BuildScript("exit 9"))
	spec := &JobSetSpec{Name: "retrying", Jobs: []JobSpec{{
		Name:       "f",
		Executable: "local://flaky.app",
		Retry:      RetryPolicy{Limit: 2, Backoff: 20 * time.Millisecond},
	}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	starts := 0
	deadline := time.After(20 * time.Second)
	for done := false; !done; {
		select {
		case n := <-h.events:
			switch n.Topic {
			case topic + "/f/started":
				starts++
			case topic + "/jobset/failed":
				done = true
			case topic + "/jobset/completed", topic + "/jobset/cancelled":
				t.Fatalf("unexpected terminal event %q", n.Topic)
			}
		case <-deadline:
			t.Fatalf("set never failed (%d starts seen)", starts)
		}
	}
	// Started events ride the broker asynchronously; give any straggler
	// a moment before counting.
	drain := time.After(300 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case n := <-h.events:
			if n.Topic == topic+"/f/started" {
				starts++
			}
		case <-drain:
			waiting = false
		}
	}
	if starts != 3 {
		t.Fatalf("job started %d times, want 3 (1 initial + 2 retries)", starts)
	}

	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Attr(qStatusAttr) != JobFailed {
		t.Fatalf("job states %+v", states)
	}
	if got := states[0].Attr(qAttemptAttr); got != "2" {
		t.Fatalf("persisted attempt = %q, want \"2\"", got)
	}
}

// TestRetryRecoversAfterPartitionHeals: a watchdog timeout on a node cut
// off both ways — unreachable, its renewals stopped — burns one retry
// attempt; when the partition heals before the backoff lapses, the
// re-dispatch (with its own fresh watchdog) runs the job to completion and
// the set completes.
func TestRetryRecoversAfterPartitionHeals(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = 250 * time.Millisecond
	// The first attempt computes past the test, so the partition lands
	// while it runs; the retry stages what is published by then.
	h.files.Publish("j.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "healme", Jobs: []JobSpec{{
		Name:       "j",
		Executable: "local://j.app",
		Retry:      RetryPolicy{Limit: 3, Backoff: 600 * time.Millisecond},
	}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)
	heal := h.silence(t, "node-a")

	// Wait for the journaled attempt counter: proof the watchdog fired
	// and the retry was booked — all master-local, no network needed.
	id := setEPR.Property(wsrf.QResourceID)
	pollDeadline := time.Now().Add(15 * time.Second)
	for {
		doc, err := h.ss.WSRF().Home().Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.ChildrenNamed(QJobState)) == 1 &&
			doc.ChildrenNamed(QJobState)[0].Attr(qAttemptAttr) == "1" {
			break
		}
		if time.Now().After(pollDeadline) {
			t.Fatal("watchdog never booked a retry attempt")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Heal inside the backoff window; the re-dispatch must succeed. Its
	// ~0.5 s of compute outlives the window: each renewal lists it.
	h.files.Publish("j.app", procspawn.BuildScript("compute 200000", "exit 0"))
	heal()

	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Attr(qStatusAttr) != JobCompleted {
		t.Fatalf("job states %+v", states)
	}
	if got := states[0].Attr(qAttemptAttr); got != "1" {
		t.Fatalf("persisted attempt = %q, want \"1\"", got)
	}
}

// TestRetryPassesOverAnUnreachableMachine: a Run no ES answered — its
// machine has just gone, its lease not yet lapsed — frees that machine's
// charge, so it looks the idlest of the catalog. The retry goes to another
// machine all the same, and the set completes there.
func TestRetryPassesOverAnUnreachableMachine(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a", "node-b")
	h.silence(t, "node-a") // Greedy's pick of two equal machines: the name breaks the tie
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "failover", Jobs: []JobSpec{{
		Name: "j", Executable: "local://j.app", Retry: RetryPolicy{Limit: 1},
	}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev := h.waitVerdict(t, topic); ev.Status != SetCompleted {
		t.Fatalf("verdict %s (%q), want completed on node-b", ev.Status, ev.Detail)
	}
}

// condSpec builds work + a run-on-failure sweeper + a run-on-always
// auditor, both ordered after work.
func condSpec(workApp string) *JobSetSpec {
	return &JobSetSpec{Name: "cond", Jobs: []JobSpec{
		{Name: "work", Executable: "local://" + workApp},
		{Name: "sweep", Executable: "local://clean.app", After: []string{"work"}, RunOn: RunOnFailure},
		{Name: "audit", Executable: "local://clean.app", After: []string{"work"}, RunOn: RunOnAlways},
	}}
}

// TestRunOnFailureCleanupRuns: when work fails, the set is no longer
// force-failed on the spot — the failure handler and the finalizer
// both run to completion first, and the set then goes Failed because
// work failed, with every job state terminal.
func TestRunOnFailureCleanupRuns(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("boom.app", procspawn.BuildScript("exit 9"))
	h.files.Publish("clean.app", procspawn.BuildScript("exit 0"))
	setEPR, topic, err := h.submit(t, condSpec("boom.app"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "failed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, st := range states {
		byName[st.Attr(qNameAttr)] = st.Attr(qStatusAttr)
	}
	want := map[string]string{"work": JobFailed, "sweep": JobCompleted, "audit": JobCompleted}
	for name, state := range want {
		if byName[name] != state {
			t.Fatalf("job states %v, want %v", byName, want)
		}
	}
}

// TestRunOnFailureSkippedOnSuccess: when work completes, the failure
// handler's gate can never open — it is cancelled, the finalizer still
// runs, and the set completes (cancelled-by-gate jobs do not fail it).
func TestRunOnFailureSkippedOnSuccess(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("ok.app", procspawn.BuildScript("exit 0"))
	h.files.Publish("clean.app", procspawn.BuildScript("exit 0"))
	setEPR, topic, err := h.submit(t, condSpec("ok.app"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, st := range states {
		byName[st.Attr(qNameAttr)] = st.Attr(qStatusAttr)
	}
	want := map[string]string{"work": JobCompleted, "sweep": JobCancelled, "audit": JobCompleted}
	for name, state := range want {
		if byName[name] != state {
			t.Fatalf("job states %v, want %v", byName, want)
		}
	}
}
