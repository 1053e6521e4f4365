package scheduler

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/procspawn"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
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
		{Topic: "fss-replica/changed"},
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

// TestBatchedEventsDoNotWaitForDispatch: one Notify carries exited(a),
// started(b), exited(b), and a's exit makes c ready on a machine whose Run
// never answers. The set's transitions are applied in arrival order and
// only the waiting — c's dispatch — is handed on: b completes while c's
// Run is still stalled. And the Notify arrives under a stranger's request
// ID, as a batch led by another set's event does: c is still dispatched
// under the ID the set was submitted with.
func TestBatchedEventsDoNotWaitForDispatch(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil) // no real machine
	ctx := context.Background()
	h.client.Use(pipeline.ClientRequestID())
	master, _ := h.network.Lookup("master")
	master.Use(pipeline.ServerRequestID())

	// A machine whose ES acks a's and b's Run at once and sits on c's.
	type ack struct{ job, attempt, flow string }
	acked := make(chan ack, 3)
	stalled := make(chan struct{})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	esEPR := wsa.NewEPR("inproc://fake/ExecutionService")
	es := soap.NewDispatcher()
	es.Register(execution.ActionRun, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		job := req.Body.ChildText(execution.QJobName)
		flow, _ := pipeline.RequestIDFrom(ctx)
		acked <- ack{job, req.Body.ChildText(execution.QAttempt), flow}
		if job == "c" {
			close(stalled)
			<-release
		}
		return soap.New(xmlutil.NewContainer(xmlutil.Q(execution.NS, "RunJobResponse"),
			esEPR.WithProperty(wsrf.QResourceID, job).ElementNamed(xmlutil.Q(execution.NS, "Job")),
			wsa.NewEPR("inproc://fake/FileSystemService").WithProperty(wsrf.QResourceID, job).ElementNamed(execution.QDirectory),
		)), nil
	})
	mux := soap.NewMux()
	mux.Handle("/ExecutionService", es)
	fakeSrv := transport.NewServer(mux)
	fakeSrv.Use(pipeline.ServerRequestID())
	h.network.Register("fake", fakeSrv)
	fake := nodeinfo.Processor{Host: "fake", ES: esEPR, Cores: 4, SpeedMHz: 1000, RAMMB: 512}
	if _, err := h.client.Call(ctx, h.ss.nis, nodeinfo.ActionReport, nodeinfo.ReportRequest(fake)); err != nil {
		t.Fatal(err)
	}

	spec := &JobSetSpec{Name: "batched", Jobs: []JobSpec{
		{Name: "a", Executable: "local://x.app"},
		{Name: "b", Executable: "local://x.app"},
		{Name: "c", Executable: "local://x.app", After: []string{"a"}},
	}}
	resp, err := h.client.Invoke(pipeline.WithRequestID(ctx, "set-flow"), h.ss.EPR(), ActionSubmit,
		soap.New(SubmitRequest(spec, h.filesEPR(), h.listenerEPR())))
	if err != nil {
		t.Fatal(err)
	}
	_, topic, _ := mustParseSubmitResponse(t, resp.Body)
	attempt := map[string]string{}
	for len(attempt) < 2 {
		select {
		case a := <-acked:
			attempt[a.job] = a.attempt
		case <-time.After(10 * time.Second):
			t.Fatalf("only %v dispatched", attempt)
		}
	}

	event := func(job, kind string) wsn.Notification { return jobEventNote(topic, job, attempt[job], kind, 0) }
	batch := wsn.NotifyBody(event("a", execution.EventExited), event("b", execution.EventStarted), event("b", execution.EventExited))
	if err := h.client.Notify(pipeline.WithRequestID(ctx, "stranger"), h.ss.ConsumerEPR(), wsn.ActionNotify, batch); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("a's exit never dispatched c")
	}
	if run := <-acked; run.job != "c" || run.flow != "set-flow" {
		t.Fatalf("Run of %s arrived under request ID %q, want c under the set's own, set-flow", run.job, run.flow)
	}

	r := h.ss.sets.live(topic)
	state := func(job string) string {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.st.jobs[r.st.index[job]].state
	}
	for deadline := time.Now().Add(5 * time.Second); state("b") != JobCompleted; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("b is %s with c's Run stalled: the Notify's later messages wait for a dispatch", state("b"))
		}
	}
	if got := state("c"); got != JobDispatched {
		t.Fatalf("c is %s, want Dispatched and waiting for its Run", got)
	}
}
