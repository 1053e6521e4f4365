package scheduler

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// waitStarted drains events until the first job-started notification.
func waitStarted(t *testing.T, events <-chan wsn.Notification) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case n := <-events:
			if strings.HasSuffix(n.Topic, "/started") {
				return
			}
		case <-deadline:
			t.Fatal("job never started")
		}
	}
}

// TestCancelStopsWatchdogs: cancelling a set must stop every job
// watchdog, not just kill the jobs — a leaked timer outlives the run and
// fires into a set that already went terminal. The node is partitioned
// first so no exit event can race in and stop the timer for us.
func TestCancelStopsWatchdogs(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = time.Hour
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "wd", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)
	h.network.Deregister("node-a")

	ctx := context.Background()
	if _, err := h.client.Call(ctx, setEPR, ActionCancel, cancelRequest()); err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "cancelled" {
		t.Fatalf("terminal event %q", got)
	}
	r := h.ss.sets.live(topic)
	if r == nil {
		t.Fatal("run gone before destroy")
	}
	r.mu.Lock()
	armed := len(r.watchdogs)
	r.mu.Unlock()
	if armed != 0 {
		t.Fatal("cancel left the job watchdog armed")
	}
}

// TestSubmitCleansUpOnSubscribeFailure: when the broker subscription
// fails after the job-set resource was created, Submit must unwind both
// the in-memory run and the resource — otherwise a set the client was
// never acked, will never poll and can never destroy leaks forever and
// shadows its topic.
func TestSubmitCleansUpOnSubscribeFailure(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.broker = wsa.NewEPR("inproc://ghost/NB")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "halfborn", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}

	if _, _, err := h.submit(t, spec, nil); err == nil {
		t.Fatal("submit succeeded with an unreachable broker")
	}
	if n := h.ss.sets.count(); n != 0 {
		t.Fatalf("aborted submit left %d sets registered", n)
	}
	if ids := h.ss.WSRF().Home().IDs(); len(ids) != 0 {
		t.Fatalf("aborted submit left %d job-set resources", len(ids))
	}
}

// TestDestroyEvictsTerminalRun: a completed set's document keeps its
// output directories until the client destroys the resource; the destroy
// then evicts the in-memory run, so terminal runs no longer accumulate
// for the master's whole lifetime.
func TestDestroyEvictsTerminalRun(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a", "node-b")
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))
	setEPR, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	// Completed but not destroyed: results stay retrievable.
	if !h.hasOutputDir(t, setEPR, "first") {
		t.Fatal("completed set lost its output directory before destroy")
	}

	ctx := context.Background()
	if err := wsrf.NewResourceClient(h.client, setEPR).Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if haveRun, n := h.ss.sets.live(topic) != nil, h.ss.sets.count(); haveRun || n != 0 {
		t.Fatalf("destroy left run=%v, %d sets registered", haveRun, n)
	}
	if h.hasOutputDir(t, setEPR, "first") {
		t.Fatal("destroyed set still serves an output directory")
	}
}

// TestDestroyCancelsRunningSet: destroying a set mid-run is a cancel —
// the run is evicted, its watchdogs stop, and the live job is killed.
func TestDestroyCancelsRunningSet(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = time.Hour
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "doomed", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)
	r := h.ss.sets.live(topic)

	ctx := context.Background()
	if err := wsrf.NewResourceClient(h.client, setEPR).Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	haveRun := h.ss.sets.live(topic) != nil
	if haveRun {
		t.Fatal("destroyed running set still has a run")
	}
	r.mu.Lock()
	status, armed := r.st.status, len(r.watchdogs)
	r.mu.Unlock()
	if status != SetCancelled {
		t.Fatalf("destroyed run left status %q", status)
	}
	if armed != 0 {
		t.Fatal("destroy left the job watchdog armed")
	}
}

// TestFailedTerminalPublishLeavesUnnotified is the I4 regression: when
// the terminal publish cannot reach the broker, the notified marker must
// stay off — stamping it anyway (the old behaviour) makes Recover skip
// the set and the client waits forever. Once the broker returns, a
// restarted scheduler replays the event and only then stamps the marker.
func TestFailedTerminalPublishLeavesUnnotified(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "eaten", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)

	// The broker refuses the acked Notify, request-response only: the
	// ES's one-way events still flow. The client cancels the set, and the
	// terminal publish has nowhere to go.
	refused := h.refuse(func(call *soap.CallInfo) bool {
		return call.Path == "/NB" && call.Action == wsn.ActionNotify && !call.OneWay
	})
	if _, err := h.client.Call(context.Background(), setEPR, ActionCancel, cancelRequest()); err != nil {
		t.Fatal(err)
	}
	id := setEPR.Property(wsrf.QResourceID)
	doc, err := h.ss.WSRF().Home().Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.ChildText(QStatus); got != SetCancelled {
		t.Fatalf("cancelled set reads %q", got)
	}
	if doc.Attr(qNotifiedAttr) == "true" {
		t.Fatal("terminal publish failed but the set was stamped notified")
	}

	// Broker heals; a restarted scheduler must replay the event.
	refused.Store(false)
	h.ss.sets.forgetAll()
	if _, err := h.ss.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "cancelled" {
		t.Fatalf("replayed terminal event %q", got)
	}
	doc, err = h.ss.WSRF().Home().Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Attr(qNotifiedAttr) != "true" {
		t.Fatal("replayed set not stamped notified")
	}
}

// hookHome is the home under the scheduler's: it counts the rows and
// documents written to it and runs a one-shot hook the next time a job's
// write, already holding its resource, checks that the set exists — the
// point just before it renders.
type hookHome struct {
	wsrf.ResourceHome
	rows, docs int
	onLookup   func()
}

func (h *hookHome) Exists(id string) bool {
	if hook := h.onLookup; hook != nil {
		h.onLookup = nil
		hook()
	}
	return h.ResourceHome.Exists(id)
}

// count counts a write that the home took: a Save refused for want of
// the row wrote nothing.
func (h *hookHome) count(id string, err error) error {
	if err == nil && isRow(id) {
		h.rows++
	} else if err == nil {
		h.docs++
	}
	return err
}

func (h *hookHome) Create(id string, doc *xmlutil.Element) error {
	return h.count(id, h.ResourceHome.Create(id, doc))
}

func (h *hookHome) Save(id string, doc *xmlutil.Element) error {
	return h.count(id, h.ResourceHome.Save(id, doc))
}

// TestJobDocWriteCarriesStateAtWriteTime is the I8 regression: the
// started handler's write and the exited handler's transition race, and
// the older write is the one delayed — it reaches the resource only after
// the job went Completed. It must then write Completed. Before the fix it
// wrote the Running it had snapshotted on the way in, and a terminal set
// could persist a live job.
func TestJobDocWriteCarriesStateAtWriteTime(t *testing.T) {
	home := &hookHome{}
	h := newSSHarnessCfg(t, nil, nil, func(cfg *Config) {
		home.ResourceHome = cfg.Home
		cfg.Home = home
	})
	spec := &JobSetSpec{Name: "set", Jobs: []JobSpec{{Name: "j"}, {Name: "k"}}}
	r := h.ss.newRun("set-1", spec, wsa.EndpointReference{}, wsa.EndpointReference{}, wssec.Credentials{})
	r.st.jobs[0].state, r.st.jobs[0].node = JobRunning, "n1"
	if _, err := h.ss.svc.CreateResource(r.id, jobSetDocument(r)); err != nil {
		t.Fatal(err)
	}

	// The started handler's write is under way when the exit lands.
	home.onLookup = func() {
		r.mu.Lock()
		r.st.jobs[0].state = JobCompleted
		r.mu.Unlock()
	}
	if err := h.ss.persist(r, effects{touched: []int{0}}); err != nil {
		t.Fatal(err)
	}

	// What a reader is shown: the materialised document.
	read := func() (string, map[string]string) {
		doc, err := h.ss.WSRF().Home().Load(r.id)
		if err != nil {
			t.Fatal(err)
		}
		v := ParseJobSetDocument(doc)
		out := make(map[string]string)
		for _, j := range v.Jobs {
			out[j.Name] = j.Status
		}
		return v.Status, out
	}
	if _, got := read(); got["j"] != JobCompleted || got["k"] != JobPending {
		t.Fatalf("delayed write persisted %v, want j=%s (the state at write time) and k untouched", got, JobCompleted)
	}

	// A transition that touches every job writes each job once, in its
	// current state, and no document.
	r.mu.Lock()
	r.st.jobs[1].state = JobCancelled
	r.mu.Unlock()
	home.rows, home.docs = 0, 0
	if err := h.ss.persist(r, effects{touched: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, got := read(); got["j"] != JobCompleted || got["k"] != JobCancelled {
		t.Fatalf("all-jobs write persisted %v", got)
	}
	if home.rows != 2 || home.docs != 0 {
		t.Fatalf("a job-level write of two jobs wrote %d rows and %d documents, want 2 and 0", home.rows, home.docs)
	}

	// Another transition's write lands ahead of the terminal transition's
	// own, after the verdict is in memory. It writes its job and not the
	// verdict: a crash right after it would otherwise leave a Failed set
	// over a live job (simgrid seed 11). The verdict goes out with the
	// terminal transition's write, on top of every job's state — its own
	// touched list does not matter.
	r.mu.Lock()
	r.st.status, r.st.jobs[1].state = SetFailed, JobFailed
	r.mu.Unlock()
	if err := h.ss.persist(r, effects{touched: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if status, got := read(); status != SetRunning {
		t.Fatalf("a job-level write carried the verdict: %s over %v", status, got)
	}
	if err := h.ss.persist(r, effects{status: true}); err != nil {
		t.Fatal(err)
	}
	if status, got := read(); status != SetFailed || got["k"] != JobFailed {
		t.Fatalf("the terminal write persisted %s over %v, want every job's state under the verdict", status, got)
	}
}

// flakyHome refuses Saves while failing is set: a journal that stopped
// taking writes.
type flakyHome struct {
	wsrf.ResourceHome
	failing bool
}

func (h *flakyHome) Save(id string, doc *xmlutil.Element) error {
	if h.failing {
		return errors.New("disk full")
	}
	return h.ResourceHome.Save(id, doc)
}

// TestJournalFailureIsReturnedAndWithholdsThePublish: a transition whose
// journal write fails hands the error to its caller instead of dropping
// it, and does not announce a verdict the document does not hold — after
// a restart Recover acts on the document, and a client told "cancelled"
// would watch the set run again. A Cancel sent over the wire is one such
// transition: it faults, and publishes nothing.
func TestJournalFailureIsReturnedAndWithholdsThePublish(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cancel func(ctx context.Context, h *ssHarness, r *run) error
	}{
		{"apply", func(ctx context.Context, h *ssHarness, r *run) error {
			_, err := h.ss.apply(ctx, r, event{kind: evCancel, reason: "cancelled by client"})
			return err
		}},
		{"wire-cancel", func(ctx context.Context, h *ssHarness, r *run) error {
			_, err := h.client.Call(ctx, h.ss.WSRF().EPRFor(r.id), ActionCancel, cancelRequest())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			home := &flakyHome{}
			h := newSSHarnessCfg(t, nil, nil, func(cfg *Config) {
				home.ResourceHome = cfg.Home
				cfg.Home = home
			})
			spec := &JobSetSpec{Name: "set", Jobs: []JobSpec{{Name: "j"}}}
			r := h.ss.newRun("set-1", spec, wsa.EndpointReference{}, wsa.EndpointReference{}, wssec.Credentials{})
			if _, err := h.ss.svc.CreateResource(r.id, jobSetDocument(r)); err != nil {
				t.Fatal(err)
			}
			h.ss.sets.add(r)
			ctx := context.Background()
			if _, err := wsn.SubscribeVia(ctx, h.client, h.ss.broker, h.listenerEPR(), wsn.Simple(r.topic)); err != nil {
				t.Fatal(err)
			}

			home.failing = true
			if err := tc.cancel(ctx, h, r); err == nil {
				t.Fatal("the journal failure was swallowed")
			}
			home.failing = false
			select {
			case n := <-h.events:
				t.Fatalf("published %s for a transition that was never journaled", n.Topic)
			case <-time.After(200 * time.Millisecond):
			}
			doc, err := h.ss.WSRF().Home().Load(r.id)
			if err != nil {
				t.Fatal(err)
			}
			if v := ParseJobSetDocument(doc); v.Status != SetRunning || v.Notified {
				t.Fatalf("document says %s notified=%v after a failed write", v.Status, v.Notified)
			}
		})
	}
}
