package scheduler

import (
	"context"
	"strings"
	"testing"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/procspawn"
	"uvacg/internal/soap"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
)

// withAdmission is the ssHarness Config hook installing a queue.
func withAdmission(q *admission.Queue) func(*Config) {
	return func(cfg *Config) { cfg.Admission = q }
}

// admissionSubmit sends a raw Submit so tests can read QueuePosition
// from the response body.
func admissionSubmit(t *testing.T, h *ssHarness, spec *JobSetSpec) (*soap.Envelope, error) {
	t.Helper()
	env := soap.New(SubmitRequest(spec, h.filesEPR(), h.listenerEPR()))
	return h.client.Invoke(context.Background(), h.ss.EPR(), ActionSubmit, env)
}

// waitTerminals drains a notification stream until every wanted topic
// has reported a terminal job-set event, and returns status by topic.
func waitTerminals(t *testing.T, events <-chan wsn.Notification, topics ...string) map[string]string {
	t.Helper()
	want := make(map[string]bool, len(topics))
	for _, tp := range topics {
		want[tp] = true
	}
	got := make(map[string]string, len(topics))
	deadline := time.After(30 * time.Second)
	for len(got) < len(want) {
		select {
		case n := <-events:
			segs := strings.Split(n.Topic, "/")
			if len(segs) == 3 && segs[1] == "jobset" && want[segs[0]] {
				got[segs[0]] = segs[2]
			}
		case <-deadline:
			t.Fatalf("terminal events: got %v, want %d topics", got, len(want))
		}
	}
	return got
}

// eventually polls until cond holds or the deadline lapses — admission
// activation runs asynchronously from the dequeue pump.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionSubmitQueuesAndCompletes is the happy path end to end:
// Submit parks the set behind the admission queue, the ack carries its
// queue position, the pump activates it (establishing the deferred
// broker subscriptions) and the set runs to completion, releasing the
// tenant's running slot.
func TestAdmissionSubmitQueuesAndCompletes(t *testing.T) {
	q := admission.New(admission.Config{})
	h := newSSHarnessCfg(t, Greedy{}, nil, withAdmission(q), "node-a", "node-b")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.ss.StartAdmission(ctx)
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))

	resp, err := admissionSubmit(t, h, twoJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	setEPR, topic, err := ParseSubmitResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if pos, ok := ParseQueuePosition(resp.Body); !ok || pos != 1 {
		t.Fatalf("queue position = %d, %v; want 1, true", pos, ok)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	if got, err := rc.GetPropertyText(context.Background(), QStatus); err != nil || got != SetCompleted {
		t.Fatalf("status = %q %v", got, err)
	}
	st, ok := h.ss.AdmissionStats()
	if !ok {
		t.Fatal("no admission stats on an admission-enabled master")
	}
	if st.Enqueues != 1 || st.Dequeues != 1 || st.Depth != 0 {
		t.Fatalf("queue stats %+v", st)
	}
	// The terminal transition released the tenant's running slot.
	eventually(t, "running slot release", func() bool {
		st, _ := h.ss.AdmissionStats()
		for _, ten := range st.Tenants {
			if ten.Running != 0 {
				return false
			}
		}
		return true
	})
}

// TestAdmissionQueueFullShedsWithRetryAfter: once the global depth
// bound is hit, Submit must come back as a typed QueueFullFault whose
// Retry-After hint survives the SOAP round trip.
func TestAdmissionQueueFullShedsWithRetryAfter(t *testing.T) {
	q := admission.New(admission.Config{MaxQueued: 1, RetryAfter: 250 * time.Millisecond})
	// No pump: the first submission stays parked and holds the slot.
	h := newSSHarnessCfg(t, Greedy{}, nil, withAdmission(q), "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))

	first := &JobSetSpec{Name: "full-1", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	if _, err := admissionSubmit(t, h, first); err != nil {
		t.Fatal(err)
	}
	second := &JobSetSpec{Name: "full-2", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, err := admissionSubmit(t, h, second)
	if err == nil {
		t.Fatal("submit over the depth bound accepted")
	}
	if !admission.IsQueueFull(err) {
		t.Fatalf("want QueueFullFault, got %v", err)
	}
	if d, ok := admission.RetryAfterHint(err); !ok || d != 250*time.Millisecond {
		t.Fatalf("retry-after hint = %v, %v; want 250ms, true", d, ok)
	}
	st, _ := h.ss.AdmissionStats()
	if st.Shed != 1 || st.Depth != 1 {
		t.Fatalf("queue stats %+v", st)
	}
}

// TestAdmissionRecoverRequeuesQueuedSets is the I6 crash test at the
// scheduler layer: submissions acked as Queued survive a crash because
// the journaled document IS the enqueue record. A fresh process (new
// admission queue, empty runtime maps) replays them in admission order
// and runs both to completion.
func TestAdmissionRecoverRequeuesQueuedSets(t *testing.T) {
	q := admission.New(admission.Config{})
	// No pump before the crash: both sets are parked when the process dies.
	h := newSSHarnessCfg(t, Greedy{}, nil, withAdmission(q), "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))

	var topics []string
	for _, name := range []string{"crash-1", "crash-2"} {
		spec := &JobSetSpec{Name: name, Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
		resp, err := admissionSubmit(t, h, spec)
		if err != nil {
			t.Fatal(err)
		}
		_, topic, err := ParseSubmitResponse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		topics = append(topics, topic)
	}

	// "Crash": drop every piece of in-memory runtime, including the
	// admission queue itself — only the journaled documents remain.
	h.ss.sets.forgetAll()
	h.ss.adm = admission.New(admission.Config{})

	resumed, err := h.ss.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 2 {
		t.Fatalf("resumed %d queued sets, want 2", resumed)
	}
	st, _ := h.ss.AdmissionStats()
	if st.Depth != 2 {
		t.Fatalf("post-recovery depth %d, want 2", st.Depth)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.ss.StartAdmission(ctx)
	got := waitTerminals(t, h.events, topics...)
	for _, topic := range topics {
		if got[topic] != "completed" {
			t.Fatalf("topic %s ended %q", topic, got[topic])
		}
	}
}

// TestAdmissionCancelWhileQueued: Cancel against a still-parked set
// unparks it without ever dispatching — the document goes terminal, the
// queue entry disappears, and a later pump start finds nothing to run.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	q := admission.New(admission.Config{})
	h := newSSHarnessCfg(t, Greedy{}, nil, withAdmission(q), "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))

	spec := &JobSetSpec{Name: "parked", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	resp, err := admissionSubmit(t, h, spec)
	if err != nil {
		t.Fatal(err)
	}
	setEPR, _, err := ParseSubmitResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := h.client.Call(ctx, setEPR, ActionCancel, CancelRequest()); err != nil {
		t.Fatalf("cancel queued set: %v", err)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	if got, err := rc.GetPropertyText(ctx, QStatus); err != nil || got != SetCancelled {
		t.Fatalf("status = %q %v", got, err)
	}
	st, _ := h.ss.AdmissionStats()
	if st.Depth != 0 {
		t.Fatalf("cancelled entry still queued: %+v", st)
	}
	// A pump started later must not resurrect it.
	pumpCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	h.ss.StartAdmission(pumpCtx)
	time.Sleep(50 * time.Millisecond)
	st, _ = h.ss.AdmissionStats()
	if st.Dequeues != 0 {
		t.Fatalf("cancelled entry was dequeued: %+v", st)
	}
	if got, err := rc.GetPropertyText(ctx, QStatus); err != nil || got != SetCancelled {
		t.Fatalf("status after pump = %q %v", got, err)
	}
}
