package scheduler

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/wsn"
	"uvacg/internal/xmlutil"
)

// TestParseEventRoundTrip: ParseEvent reads back every notification the
// topic tree's two publishers emit — each ES lifecycle event of a real
// run, and publishSetEvent for each status it is called with — and
// nothing else.
func TestParseEventRoundTrip(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))
	_, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	next := func() Event {
		t.Helper()
		select {
		case n := <-h.events:
			ev, ok := ParseEvent(n)
			if !ok || ev.Set != topic {
				t.Fatalf("ParseEvent(%q) = %+v, %v", n.Topic, ev, ok)
			}
			return ev
		case <-time.After(30 * time.Second):
			t.Fatal("no event")
			panic("unreachable")
		}
	}

	seen := make(map[string]bool)
	for ev := next(); ; ev = next() {
		if ev.Job == "" {
			if ev.Kind != "completed" || ev.Status != SetCompleted {
				t.Fatalf("verdict = %+v", ev)
			}
			break
		}
		if ev.JobEvent.JobName != ev.Job || ev.JobEvent.Kind != ev.Kind || ev.Status != "" {
			t.Fatalf("job event %+v disagrees with its topic", ev)
		}
		seen[ev.Job+"/"+ev.Kind] = true
	}
	if len(seen) == 0 { // delivery is unordered: any of them may trail the verdict, not all
		t.Error("no ES event reached the client ahead of the verdict")
	}

	for _, status := range []string{SetCompleted, SetFailed, SetCancelled, SetPreempted} {
		if err := h.ss.publishSetEvent(context.Background(), "any", topic, status, "because"); err != nil {
			t.Fatal(err)
		}
		ev := next()
		for ; ev.Job != ""; ev = next() { // a straggling job event
		}
		if ev.Status != status || ev.Detail != "because" || TerminalSetStatus(ev.Status) != (status != SetPreempted) {
			t.Errorf("published %s, parsed %+v", status, ev)
		}
	}

	verdict := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetEvent"), xmlutil.NewElement(QStatus, SetFailed))
	for _, n := range []wsn.Notification{
		{Topic: nodeinfo.CatalogTopic + "/changed"},
		{Topic: ShardMapTopic + "/changed"},
		{Topic: "jobset-1"},
		{Topic: "jobset-1/first/exited/again"},
		{Topic: "jobset-1/jobset/completed"},                   // no payload
		{Topic: "jobset-1/jobset/completed", Message: verdict}, // word and payload disagree
	} {
		if ev, ok := ParseEvent(n); ok {
			t.Errorf("ParseEvent(%q) accepted a foreign notification as %+v", n.Topic, ev)
		}
	}
}
