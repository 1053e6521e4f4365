package scheduler

// Regression tests for three terminal-transition bugs: a timed-out job
// whose own process was never killed, Cancel clobbering an already
// terminal set, and failJob persisting live job states into Failed-set
// documents. Each test fails against the pre-fix scheduler.

import (
	"context"
	"strings"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/wsrf"
)

// TestWatchdogTimeoutKillsTimedOutJob: when the watchdog fails a job
// the job's own process must be on the kill list. The old failJob set
// the job's state to Failed before walking the kill loop, so the loop's
// Running/Dispatched filter skipped it and the process computed
// forever. The killed process publishes its exit event, which is what
// we watch for — on a reachable node, no kill means no exit, ever.
func TestWatchdogTimeoutKillsTimedOutJob(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = 300 * time.Millisecond
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "stuck", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)

	// The node stays reachable: the job simply outlives its timeout.
	// Expect both the set's terminal event and the evidence of the kill
	// — the reaped process's exit event on the job's own topic.
	var failed, killed bool
	deadline := time.After(20 * time.Second)
	for !failed || !killed {
		select {
		case n := <-h.events:
			switch n.Topic {
			case topic + "/jobset/failed":
				failed = true
			case topic + "/long/exited":
				killed = true
			}
		case <-deadline:
			t.Fatalf("failed=%v killed=%v: the timed-out job's process was never reaped", failed, killed)
		}
	}
}

// TestCancelAfterCompleteKeepsVerdict: cancelling a set that already
// went terminal must be a no-op. The old handleCancel overwrote the
// status unconditionally, flipping a Completed document to Cancelled
// and publishing a second, contradictory terminal event.
func TestCancelAfterCompleteKeepsVerdict(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("q.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "done", Jobs: []JobSpec{{Name: "q", Executable: "local://q.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}

	ctx := context.Background()
	if _, err := h.client.Call(ctx, setEPR, ActionCancel, CancelRequest()); err != nil {
		t.Fatalf("cancel of a completed set faulted: %v", err)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	if got, err := rc.GetPropertyText(ctx, QStatus); err != nil || got != SetCompleted {
		t.Fatalf("status after late cancel = %q %v, want %q", got, err, SetCompleted)
	}
	// No second terminal event may follow the first.
	timeout := time.After(300 * time.Millisecond)
	for {
		select {
		case n := <-h.events:
			if strings.HasPrefix(n.Topic, topic+"/jobset/") {
				t.Fatalf("late cancel published a second terminal event %q", n.Topic)
			}
		case <-timeout:
			return
		}
	}
}

// TestFailedSetLeavesNoLiveJobStates: when one job's failure dooms its
// siblings, the killed siblings must be recorded as Cancelled. The old
// failJob killed their processes but never transitioned their states,
// so a Failed set's document said "Running" forever.
func TestFailedSetLeavesNoLiveJobStates(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	// boom computes long enough that its sibling is demonstrably started
	// before the nonzero exit arrives (~1s at the node's 5µs unit time).
	h.files.Publish("boom.app", procspawn.BuildScript("compute 200000", "exit 9"))
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "doomed", Jobs: []JobSpec{
		{Name: "boom", Executable: "local://boom.app"},
		{Name: "long", Executable: "local://long.app"},
	}}
	setEPR, topic, err := h.submit(t, spec, nil)
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
	if byName["boom"] != JobFailed {
		t.Fatalf("boom = %q, want %q", byName["boom"], JobFailed)
	}
	if byName["long"] != JobCancelled {
		t.Fatalf("long = %q, want %q (terminal set persisted a live job state)", byName["long"], JobCancelled)
	}
}
