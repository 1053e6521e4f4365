package scheduler

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// TestRecoverResumesRunningJobSet simulates a scheduler crash between
// two jobs of a dependency chain: the first job completed (its output
// directory is recorded in the job-set resource), the process restarts,
// Recover rebuilds the run and the second job is dispatched and the set
// completes.
func TestRecoverResumesRunningJobSet(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))

	setEPR, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("initial run: %q", got)
	}

	// "Crash": rewind the persisted state to mid-run — first Completed
	// (keeping its recorded directory), second back to Pending, set
	// Running — and drop all in-memory runtime, as a new process would.
	id := setEPR.Property(wsrf.QResourceID)
	h.ss.sets.forgetAll()
	err = h.ss.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
		if c := doc.Child(QStatus); c != nil {
			c.Text = SetRunning
		}
		for _, st := range doc.ChildrenNamed(QJobState) {
			if st.Attr(qNameAttr) == "second" {
				st.SetAttr(qStatusAttr, JobPending)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restart: Recover rebuilds the run and finishes it.
	resumed, err := h.ss.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d runs", resumed)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("recovered run: %q", got)
	}
}

// TestRecoverFailsSecuredRun: credentials are never persisted, so a
// secured run cannot be resumed — it must fail loudly, not hang.
func TestRecoverFailsSecuredRun(t *testing.T) {
	accounts := wssec.StaticAccounts{"scientist": "pw"}
	h := newSSHarness(t, Greedy{}, accounts, "node-a")
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "sec", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	creds := wssec.Credentials{Username: "scientist", Password: "pw"}
	setEPR, topic, err := h.submit(t, spec, &creds)
	if err != nil {
		t.Fatal(err)
	}
	_ = setEPR

	// Crash while still running.
	h.ss.sets.forgetAll()

	resumed, err := h.ss.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("secured run resumed (%d)", resumed)
	}
	if got := h.waitTerminal(t, topic); got != "failed" {
		t.Fatalf("secured recovery: %q", got)
	}
}

// TestRecoverSkipsUnrecoverableSet: one job set with a gutted spec
// snapshot must not abort the whole recovery pass — the healthy set
// still resumes and completes, and the broken one is failed and reported
// in the joined error.
func TestRecoverSkipsUnrecoverableSet(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("good.app", procspawn.BuildScript("exit 0"))
	h.files.Publish("bad.app", procspawn.BuildScript("exit 0"))

	goodSpec := &JobSetSpec{Name: "good", Jobs: []JobSpec{{Name: "g", Executable: "local://good.app"}}}
	badSpec := &JobSetSpec{Name: "bad", Jobs: []JobSpec{{Name: "b", Executable: "local://bad.app"}}}
	// Submit and finish one at a time: waitTerminal discards events for
	// other topics, so concurrent sets would race the drain.
	goodEPR, goodTopic, err := h.submit(t, goodSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, goodTopic); got != "completed" {
		t.Fatalf("initial good run: %q", got)
	}
	badEPR, badTopic, err := h.submit(t, badSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, badTopic); got != "completed" {
		t.Fatalf("initial bad run: %q", got)
	}

	// Crash both mid-run; gut the bad set's spec snapshot so it cannot
	// be rebuilt.
	h.ss.sets.forgetAll()
	for _, c := range []struct {
		epr wsa.EndpointReference
		gut bool
	}{{goodEPR, false}, {badEPR, true}} {
		id := c.epr.Property(wsrf.QResourceID)
		err := h.ss.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
			if el := doc.Child(QStatus); el != nil {
				el.Text = SetRunning
			}
			for _, st := range doc.ChildrenNamed(QJobState) {
				st.SetAttr(qStatusAttr, JobPending)
			}
			if c.gut {
				if sp := doc.Child(qSpecSnapshot); sp != nil {
					sp.Children = nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := h.ss.Recover(context.Background())
	if err == nil {
		t.Fatal("Recover swallowed the unrecoverable set")
	}
	if !strings.Contains(err.Error(), "no recoverable spec") {
		t.Fatalf("recover error = %v", err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d runs, want 1 (the healthy set)", resumed)
	}
	if got := h.waitTerminal(t, goodTopic); got != "completed" {
		t.Fatalf("healthy set after partial recovery: %q", got)
	}
	// The broken one is failed as a set, not left Running for ever.
	doc, err := h.ss.WSRF().Home().Load(badEPR.Property(wsrf.QResourceID))
	if err != nil || doc.ChildText(QStatus) != SetFailed {
		t.Fatalf("unrecoverable set left %q, err %v", doc.ChildText(QStatus), err)
	}
}

// TestRecoverFailsInvalidSnapshot: a persisted spec snapshot that no
// longer validates — a cycle or a dangling dependency, possible via
// corruption or an older writer — must fail the set explicitly. Resuming
// it would deadlock scheduleReady forever: no job ever becomes ready.
func TestRecoverFailsInvalidSnapshot(t *testing.T) {
	cases := []struct {
		name string
		spec *JobSetSpec
	}{
		{"cyclic DAG", &JobSetSpec{Name: "cyc", Jobs: []JobSpec{
			{Name: "a", Executable: "local://j.app", Outputs: []string{"o"},
				Inputs: []FileSpec{{LocalName: "i", Source: "b://o"}}},
			{Name: "b", Executable: "local://j.app", Outputs: []string{"o"},
				Inputs: []FileSpec{{LocalName: "i", Source: "a://o"}}},
		}}},
		{"missing job reference", &JobSetSpec{Name: "dangling", Jobs: []JobSpec{
			{Name: "a", Executable: "local://j.app",
				Inputs: []FileSpec{{LocalName: "i", Source: "ghost://o"}}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSSHarness(t, Greedy{}, nil, "node-a")
			h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
			good := &JobSetSpec{Name: "good", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
			setEPR, topic, err := h.submit(t, good, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.waitTerminal(t, topic); got != "completed" {
				t.Fatalf("initial run: %q", got)
			}

			// Crash mid-run, with the snapshot swapped for one that can
			// no longer pass validation.
			id := setEPR.Property(wsrf.QResourceID)
			h.ss.sets.forgetAll()
			err = h.ss.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
				if el := doc.Child(QStatus); el != nil {
					el.Text = SetRunning
				}
				for _, st := range doc.ChildrenNamed(QJobState) {
					st.SetAttr(qStatusAttr, JobPending)
				}
				if sp := doc.Child(qSpecSnapshot); sp != nil {
					sp.Children = specElement(tc.spec)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := h.ss.Recover(context.Background())
			if err == nil || !strings.Contains(err.Error(), "invalid recovered spec") {
				t.Fatalf("recover error = %v", err)
			}
			if resumed != 0 {
				t.Fatalf("invalid set resumed (%d)", resumed)
			}
			// The set is failed — terminally, with its event published —
			// not left hanging in Running.
			if got := h.waitTerminal(t, topic); got != "failed" {
				t.Fatalf("invalid snapshot left set %q", got)
			}
			doc, err := h.ss.WSRF().Home().Load(id)
			if err != nil {
				t.Fatal(err)
			}
			v := ParseJobSetDocument(doc)
			if v.Status != SetFailed {
				t.Fatalf("persisted status %q", v.Status)
			}
			for _, jv := range v.Jobs {
				if jv.Status != JobCancelled {
					t.Fatalf("job %s left %q, want cancelled", jv.Name, jv.Status)
				}
			}
		})
	}
}

// TestRecoverRepublishesUnnotifiedTerminalEvent: the status write and
// the broker publish are not atomic. If the scheduler crashed in that
// window the client would wait forever — Recover must republish the
// terminal event for terminal sets lacking the notified marker, and
// stamp the marker so the next restart does not publish a third time.
func TestRecoverRepublishesUnnotifiedTerminalEvent(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "done", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("run: %q", got)
	}

	// Crash between the status write and the publish: terminal on disk,
	// marker missing. The client hears the event before the scheduler has
	// stamped the marker (it stamps after the broker's ack), so wait for
	// the stamp first or it lands on top of the edit.
	id := setEPR.Property(wsrf.QResourceID)
	waitNotified(t, h.ss, id)
	if err := h.ss.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
		doc.SetAttr(qNotifiedAttr, "")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h.ss.sets.forgetAll()

	resumed, err := h.ss.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("terminal set resumed (%d)", resumed)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("replayed terminal event %q", got)
	}
	doc, err := h.ss.WSRF().Home().Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Attr(qNotifiedAttr) != "true" {
		t.Fatal("republished set not stamped notified")
	}

	// With the marker present a second Recover stays quiet.
	if _, err := h.ss.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-h.events:
		if strings.Contains(n.Topic, "/jobset/") {
			t.Fatalf("marked set republished again: %s", n.Topic)
		}
	default:
	}
}

// TestRecoverIgnoresFinishedSets: completed/failed sets stay untouched.
func TestRecoverIgnoresFinishedSets(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "done", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("run: %q", got)
	}
	h.ss.sets.forgetAll()
	resumed, err := h.ss.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("finished set resumed (%d)", resumed)
	}
}

// crashMidRun is a crash after set id's run and the start's view of it: the
// master forgets every run, and the set's document reads Running again
// with every job Pending.
func crashMidRun(t *testing.T, h *ssHarness, id string) {
	t.Helper()
	h.ss.sets.forgetAll()
	err := h.ss.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
		doc.Child(QStatus).Text = SetRunning
		for _, st := range doc.ChildrenNamed(QJobState) {
			st.SetAttr(qStatusAttr, JobPending)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWithoutTheBrokersSubscribe: a restarted master whose broker
// takes no Subscribe still resumes its sets and runs them to the end. Its
// consumer's standing subscription was made when the master was
// assembled; only the client's listener, best-effort on Recover, is
// subscribed again, so nothing in Recover can fail for want of one.
// (simgrid seed 26: a restarted master's per-set Subscribe was dropped and
// the set stayed Running until a sweep got one through.)
func TestRecoverWithoutTheBrokersSubscribe(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "later", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("initial run: %q", got)
	}
	id := setEPR.Property(wsrf.QResourceID)
	crashMidRun(t, h, id)
	h.refuse(func(call *soap.CallInfo) bool { return call.Action == wsn.ActionSubscribe })
	if resumed, err := h.ss.Recover(context.Background()); err != nil || resumed != 1 {
		t.Fatalf("Recover with every Subscribe refused: resumed %d, err %v", resumed, err)
	}
	eventually(t, "the recovered set Completed in its document", func() bool {
		doc, err := h.ss.WSRF().Home().Load(id)
		return err == nil && doc.ChildText(QStatus) == SetCompleted
	})
}

// TestSubmitSubscribesOnlyTheListener: a Submit sends the broker one
// Subscribe, for the client's listener. The SS's consumer is subscribed to
// every set once, by the wiring; it is not subscribed again per set.
func TestSubmitSubscribesOnlyTheListener(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	var mu sync.Mutex
	var consumers []string
	h.client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.Action == wsn.ActionSubscribe {
			consumer, _, err := wsn.ParseSubscribeRequest(call.Request.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			consumers = append(consumers, consumer.Address)
			mu.Unlock()
		}
		return next(ctx, call)
	})
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	for i := range 3 {
		spec := &JobSetSpec{Name: fmt.Sprint("set-", i), Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
		_, topic, err := h.submit(t, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.waitTerminal(t, topic); got != "completed" {
			t.Fatalf("set %d: %q", i, got)
		}
		mu.Lock()
		got := slices.Clone(consumers)
		consumers = nil
		mu.Unlock()
		if len(got) != 1 || got[0] != h.listenerEPR().Address {
			t.Fatalf("set %d sent Subscribe for %v, want one for the listener %s", i, got, h.listenerEPR().Address)
		}
	}
}

// TestRecoverReportsAnUnreadableSet: a set whose document cannot be read —
// a row journaled under another codec — may be acked work, so Recover
// names it in its error instead of passing over it, and the walk goes on:
// the readable set beside it still resumes and completes.
func TestRecoverReportsAnUnreadableSet(t *testing.T) {
	home := &loadFailingHome{}
	h := newSSHarnessCfg(t, Greedy{}, nil, func(cfg *Config) {
		home.ResourceHome = cfg.Home
		cfg.Home = home
	}, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	var ids []string
	var topics []string
	for _, name := range []string{"readable", "unreadable"} {
		spec := &JobSetSpec{Name: name, Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
		epr, topic, err := h.submit(t, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.waitTerminal(t, topic); got != "completed" {
			t.Fatalf("initial run of %s: %q", name, got)
		}
		ids, topics = append(ids, epr.Property(wsrf.QResourceID)), append(topics, topic)
		waitNotified(t, h.ss, ids[len(ids)-1])
		crashMidRun(t, h, ids[len(ids)-1])
	}
	home.bad.Store(ids[1])
	resumed, err := h.ss.Recover(context.Background())
	if err == nil || !strings.Contains(err.Error(), ids[1]) || resumed != 1 {
		t.Fatalf("Recover over an unreadable set: resumed %d, err %v; want 1 and an error naming %s", resumed, err, ids[1])
	}
	if got := h.waitTerminal(t, topics[0]); got != "completed" {
		t.Fatalf("the readable set after the unreadable one: %q", got)
	}
}

// loadFailingHome is the home under the scheduler's; Load fails for the
// one id bad names, as for a row that does not decode.
type loadFailingHome struct {
	wsrf.ResourceHome
	bad atomic.Value // string
}

func (h *loadFailingHome) Load(id string) (*xmlutil.Element, error) {
	if bad, _ := h.bad.Load().(string); id == bad {
		return nil, fmt.Errorf("row %q does not decode", id)
	}
	return h.ResourceHome.Load(id)
}

// waitNotified blocks until the scheduler has stamped a terminal set's
// document notified — the set's last write, made after the broker acks
// the terminal event and therefore possibly after a client heard it.
func waitNotified(t *testing.T, ss *Service, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		doc, err := ss.WSRF().Home().Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Attr(qNotifiedAttr) == "true" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the terminal set was never stamped notified")
		}
	}
}

// TestRecoveredSetEventsArriveOnce: the broker's subscriptions are durable
// and a restarted master subscribes the client's listener again for every
// set it recovers. The broker answers with the subscriptions it has, so
// each event of the recovered set still reaches the client's listener
// once — not once per restart survived — and the broker holds no more
// subscriptions than before.
func TestRecoveredSetEventsArriveOnce(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))
	setEPR, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("initial run: %q", got)
	}
	subscriptions := len(h.broker.Producer().SubscriptionService().Home().IDs())

	// Two crashes in a row, each rewinding "second" to Pending.
	id := setEPR.Property(wsrf.QResourceID)
	for restart := 1; restart <= 2; restart++ {
		h.ss.sets.forgetAll()
		err = h.ss.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
			doc.Child(QStatus).Text = SetRunning
			for _, st := range doc.ChildrenNamed(QJobState) {
				if st.Attr(qNameAttr) == "second" {
					st.SetAttr(qStatusAttr, JobPending)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if resumed, err := h.ss.Recover(context.Background()); err != nil || resumed != 1 {
			t.Fatalf("restart %d: resumed %d runs, %v", restart, resumed, err)
		}
		// Counted per attempt: one-way delivery is unordered, so an event of
		// the previous incarnation's attempt may still trail in.
		arrived := map[string]int{}
		settle := time.After(30 * time.Second)
		for done := false; !done; {
			select {
			case n := <-h.events:
				ev, _ := ParseEvent(n)
				arrived[ev.Job+"/"+ev.Kind+" "+ev.JobEvent.Attempt]++
				if n.Topic == topic+"/jobset/completed" {
					// Whatever else is still on its way gets a moment.
					settle = time.After(50 * time.Millisecond)
				}
			case <-settle:
				done = true
			}
		}
		seen := map[string]bool{}
		for key, n := range arrived {
			kind, _, _ := strings.Cut(key, " ")
			seen[kind] = true
			if n != 1 {
				t.Errorf("restart %d: %q arrived %d times at the client's listener, want once (all: %v)", restart, key, n, arrived)
			}
		}
		for _, want := range []string{"second/directory", "second/started", "second/exited", "/completed"} {
			if !seen[want] {
				t.Errorf("restart %d: no %s event arrived (all: %v)", restart, want, arrived)
			}
		}
		if got := len(h.broker.Producer().SubscriptionService().Home().IDs()); got != subscriptions {
			t.Errorf("restart %d: the broker holds %d subscriptions, %d before the restart", restart, got, subscriptions)
		}
	}
}
