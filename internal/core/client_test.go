package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

var scientist = wssec.Credentials{Username: "scientist", Password: "pw"}

// configuredClient is testClient with the configuration open to the
// test: a journal, a pointed-elsewhere master, a lossy listener.
func configuredClient(t *testing.T, g *Grid, useTCP bool, configure func(*ClientConfig)) *Client {
	t.Helper()
	cfg := g.clientConfig(scientist, useTCP)
	if configure != nil {
		configure(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// door puts a fake scheduler front door on the grid's network at
// inproc://<host>: answer decides each Submit it receives — a non-nil
// error is returned as the fault, nil passes the envelope on to the real
// Scheduler. It returns the door's EPR and its call counter.
func door(g *Grid, host string, answer func(call int, req *soap.Envelope) error) (wsa.EndpointReference, *atomic.Int32) {
	calls := new(atomic.Int32)
	d := soap.NewDispatcher()
	d.Register(scheduler.ActionSubmit, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		if err := answer(int(calls.Add(1)), req); err != nil {
			return nil, err
		}
		return g.Client.Invoke(ctx, g.Scheduler.EPR(), scheduler.ActionSubmit, req)
	})
	mux := soap.NewMux()
	mux.Handle(scheduler.ServicePath, d)
	g.Network.Register(host, transport.NewServer(mux))
	return wsa.NewEPR("inproc://" + host + scheduler.ServicePath), calls
}

func queueFull(hint time.Duration) error {
	f := wsrf.NewBaseFault(admission.QueueFullFaultCode, "submission shed")
	f.Cause = wsrf.NewBaseFault("RetryAfter", "%s", hint)
	return f.SOAPFault(soap.CodeReceiver)
}

// TestSubmitLoop drives the one submit loop through its outcomes against
// scripted front doors: a full queue waited out within the cap and given
// up on, everything else returned.
func TestSubmitLoop(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	ctx := testCtx(t)
	cases := []struct {
		name  string
		door  func(call int) error // the front door the client is pointed at
		calls int                  // Submits it must have seen
		check func(t *testing.T, err error)
		log   string // a progress line that must have been printed
	}{{
		name: "full queue waited out, hint capped",
		door: func(call int) error {
			if call <= 2 {
				return queueFull(time.Hour) // capped at MaxRetryAfter, or this test times out
			}
			return nil
		},
		calls: 3,
		log:   "admission queue full; retrying in",
	}, {
		name:  "full queue given up after ten retries",
		door:  func(int) error { return queueFull(time.Millisecond) },
		calls: 11,
		check: func(t *testing.T, err error) {
			if !admission.IsQueueFull(err) || !strings.Contains(err.Error(), "after 10 attempts") {
				t.Fatalf("want QueueFullFault after 10 attempts, got %v", err)
			}
		},
	}, {
		name:  "any other fault returned at once",
		door:  func(int) error { return soap.ReceiverFault("boom") },
		calls: 1,
		check: func(t *testing.T, err error) {
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("want the fault, got %v", err)
			}
		},
	}}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, calls := door(g, "a", func(call int, _ *soap.Envelope) error { return tc.door(call) })
			defer g.Network.Deregister("a")
			var log strings.Builder
			c := configuredClient(t, g, false, func(cfg *ClientConfig) {
				cfg.Master = "inproc://a"
				cfg.MaxRetryAfter = 2 * time.Millisecond
				cfg.Logf = func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) }
			})
			c.AddFile("j.app", Script("exit 0"))
			sub, err := c.Submit(ctx, NewJobSet(fmt.Sprintf("loop-%d", i)).Add("j", Local("j.app")).Spec())
			if got := int(calls.Load()); got != tc.calls {
				t.Errorf("the door saw %d Submits, want %d", got, tc.calls)
			}
			if !strings.Contains(log.String(), tc.log) {
				t.Errorf("log lacks %q:\n%s", tc.log, log.String())
			}
			if tc.check != nil {
				tc.check(t, err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
				t.Fatalf("status %q, %v", status, err)
			}
		})
	}
}

// TestSubmitToLeavesAFullQueueToTheCaller: the one-attempt form simgrid's
// policy sits on does not wait out a shed.
func TestSubmitToLeavesAFullQueueToTheCaller(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	a, calls := door(g, "a", func(int, *soap.Envelope) error { return queueFull(time.Millisecond) })
	c := testClient(t, g)
	_, err := c.SubmitTo(testCtx(t), a, scientist, NewJobSet("once").Add("j", Local("j.app")).Spec())
	if !admission.IsQueueFull(err) || calls.Load() != 1 {
		t.Fatalf("want one QueueFullFault, got %v after %d calls", err, calls.Load())
	}
}

// TestCredentialRule: the password crosses encrypted to the Scheduler's
// certificate when the client was given one and as a digest when not —
// never as text.
func TestCredentialRule(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	cert, _ := g.SchedulerCertificate()
	for name, given := range map[string]*wssec.Certificate{"encrypted": &cert, "digest": nil} {
		t.Run(name, func(t *testing.T) {
			var seen *soap.Envelope
			a, _ := door(g, "a", func(_ int, req *soap.Envelope) error {
				seen = req
				return nil
			})
			defer g.Network.Deregister("a")
			c := configuredClient(t, g, false, func(cfg *ClientConfig) { cfg.SchedulerCertificate = given })
			c.AddFile("j.app", Script("exit 0"))
			if _, err := c.SubmitTo(testCtx(t), a, scientist, NewJobSet("creds-"+name).Add("j", Local("j.app")).Spec()); err != nil {
				t.Fatal(err) // the real Scheduler verified what the door passed on
			}
			if raw, _ := seen.Marshal(); strings.Contains(string(raw), ">pw<") {
				t.Fatalf("password text on the wire:\n%s", raw)
			}
			if encrypted := wssec.HasEncryptedHeader(seen); encrypted != (given != nil) {
				t.Fatalf("encrypted header = %v with certificate given = %v", encrypted, given != nil)
			}
			if given == nil {
				if tok, err := wssec.ExtractToken(seen); err != nil || tok.PasswordType != wssec.PasswordDigest {
					t.Fatalf("token %+v, %v; want a password digest", tok, err)
				}
			}
		})
	}
}

// setEvent and jobEvent build notifications as their publishers do.
func setEvent(topic, status string) wsn.Notification {
	return wsn.Notification{
		Topic:   topic + "/jobset/" + strings.ToLower(status),
		Message: xmlutil.NewContainer(xmlutil.Q(scheduler.NS, "JobSetEvent"), xmlutil.NewElement(scheduler.QStatus, status)),
	}
}

func directoryEvent(topic, job string, dir wsa.EndpointReference) wsn.Notification {
	return wsn.Notification{
		Topic: topic + "/" + job + "/" + execution.EventDirectory,
		Message: xmlutil.NewContainer(xmlutil.Q(execution.NS, "JobEvent"),
			xmlutil.NewElement(execution.QJobName, job),
			xmlutil.NewElement(execution.QStatus, execution.EventDirectory),
			dir.ElementNamed(execution.QDirectory)),
	}
}

// TestPreemptedLeavesWaitBlocked: "preempted" is the one set-level event
// that is not a verdict; a later "completed" is.
func TestPreemptedLeavesWaitBlocked(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	sub := c.follow("evicted", wsa.NewEPR("inproc://master/x"), "topic-p", nil)
	c.route(context.Background(), setEvent("topic-p", scheduler.SetPreempted))
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if status, err := sub.Wait(short); err == nil {
		t.Fatalf("Wait returned %q after preempted", status)
	}
	c.route(context.Background(), setEvent("topic-p", scheduler.SetCompleted))
	if status, err := sub.Wait(testCtx(t)); err != nil || status != scheduler.SetCompleted {
		t.Fatalf("Wait = %q, %v after completed", status, err)
	}
	if got := len(sub.Events()); got != 2 {
		t.Fatalf("Events holds %d notifications, want both", got)
	}
}

// TestEventsAheadOfTheSubmitReplyAreReplayed: the broker races the
// Submit response; what arrived first is not lost.
func TestEventsAheadOfTheSubmitReplyAreReplayed(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	dir := wsa.NewEPR("inproc://solo/FileSystemService")
	c.route(context.Background(), directoryEvent("topic-r", "j", dir))
	c.route(context.Background(), setEvent("topic-r", scheduler.SetCompleted))
	c.route(context.Background(), setEvent("topic-other", scheduler.SetFailed))
	sub := c.follow("raced", wsa.NewEPR("inproc://master/x"), "topic-r", nil)
	if status, _ := sub.Status(); status != scheduler.SetCompleted {
		t.Fatalf("status = %q, want the raced verdict", status)
	}
	if got, ok := sub.OutputDirectory("j"); !ok || got.Address != dir.Address {
		t.Fatalf("directory = %v %v, want the raced one", got, ok)
	}
	if len(sub.Events()) != 2 || len(c.pending) != 1 {
		t.Fatalf("replayed %d events, %d still pending; want 2 and the other set's 1", len(sub.Events()), len(c.pending))
	}
}

// TestDroppedDirectoryEventsStillFetch is the regression for the
// measured gridsub data loss: jobset/completed overtaking a job's
// events — every one of which carries its directory; here all are
// dropped — must not cost an output.
func TestDroppedDirectoryEventsStillFetch(t *testing.T) {
	g := testGrid(t)
	ctx := testCtx(t)
	c := configuredClient(t, g, false, func(cfg *ClientConfig) {
		expose := cfg.Expose
		cfg.Expose = func(srv *transport.Server) (string, func(), error) {
			srv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
				// Job-level messages are dropped whatever Notify they arrive
				// in; what is left of it, if anything, goes through.
				if ns, err := wsn.ParseNotifyBody(call.Request.Body); err == nil {
					kept := ns[:0]
					for _, n := range ns {
						if strings.Contains(n.Topic, "/jobset/") {
							kept = append(kept, n)
						}
					}
					if len(kept) == 0 {
						return nil, nil
					}
					call.Request.Body = wsn.NotifyBody(kept...)
				}
				return next(ctx, call)
			})
			return expose(srv)
		}
	})
	c.AddFile("w.app", Script("write out.txt data", "exit 0"))
	set := NewJobSet("lossy")
	for i := 0; i < 4; i++ {
		set.Add(fmt.Sprintf("w%d", i), Local("w.app")).Outputs("out.txt")
	}
	sub, err := c.Submit(ctx, set.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
		t.Fatalf("status %q, %v", status, err)
	}
	for i := 0; i < 4; i++ {
		job := fmt.Sprintf("w%d", i)
		if _, known := sub.OutputDirectory(job); known {
			t.Fatalf("the listener let one of %s's events through", job)
		}
		if out, err := sub.FetchOutput(ctx, job, "out.txt"); err != nil || string(out) != "data" {
			t.Fatalf("fetch %s/out.txt = %q, %v", job, out, err)
		}
	}
}

// TestResume: a second client over the first one's journal re-attaches
// to the job set — serving local files from the journaled address, so
// the job dispatched after the restart can stage its executable — and
// learns from the set's document what happened while nobody listened.
func TestResume(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	ctx := testCtx(t)
	spec := func(name string) *JobSet {
		return NewJobSet(name).
			Add("first", Local("first.app")).Outputs("a.txt").
			Add("second", Local("second.app")).Input("a.txt", Output("first", "a.txt")).Outputs("b.txt").
			Spec()
	}
	client := func(journal *resourcedb.Table, firstCompute int) *Client {
		c := configuredClient(t, g, true, func(cfg *ClientConfig) { cfg.Journal = journal })
		c.AddFile("first.app", Script(fmt.Sprintf("compute %d", firstCompute), "write a.txt 1", "exit 0"))
		c.AddFile("second.app", Script("read a.txt", "transform a.txt b.txt copy", "exit 0"))
		return c
	}
	awaitDocument := func(set wsa.EndpointReference) {
		t.Helper()
		rc := wsrf.NewResourceClient(g.Client, set)
		for status := ""; status != scheduler.SetCompleted; time.Sleep(5 * time.Millisecond) {
			var err error
			if status, err = rc.GetPropertyText(ctx, scheduler.QStatus); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("running", func(t *testing.T) {
		journal := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
		first := client(journal, 60000) // "second" is dispatched well after the restart below
		old, err := first.Submit(ctx, spec("resume-running"))
		if err != nil {
			t.Fatal(err)
		}
		// The process dies once "first" runs. Dying sooner, while the node
		// is still pulling first.app from this client's file server, fails
		// that job: a different (and legitimate) outcome.
		for started := false; !started; {
			select {
			case n := <-old.Events():
				ev, _ := scheduler.ParseEvent(n)
				started = ev.Job == "first" && ev.Kind == "started"
			case <-ctx.Done():
				t.Fatal("first never started")
			}
		}
		filesAt := first.FilesEPR()
		first.Close() // the process dies: listener and file server gone

		second := client(journal, 60000)
		sub, err := second.Resume(ctx, "resume-running")
		if err != nil || sub == nil {
			t.Fatalf("Resume = %v, %v", sub, err)
		}
		if sub.Topic != old.Topic || second.FilesEPR().Address != filesAt.Address {
			t.Fatalf("resumed topic %q files %s, want %q %s", sub.Topic, second.FilesEPR().Address, old.Topic, filesAt.Address)
		}
		if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
			_, detail := sub.Status()
			t.Fatalf("status %q (%s), %v", status, detail, err)
		}
		if out, err := sub.FetchOutput(ctx, "second", "b.txt"); err != nil || strings.TrimSpace(string(out)) != "1" {
			t.Fatalf("second/b.txt = %q, %v", out, err)
		}
		// Finished and journaled as such: nothing left to resume.
		if again, err := second.Resume(ctx, "resume-running"); again != nil || err != nil {
			t.Fatalf("Resume of a finished submission = %v, %v", again, err)
		}
	})

	t.Run("finished while down", func(t *testing.T) {
		journal := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
		first := client(journal, 10)
		old, err := first.Submit(ctx, spec("resume-finished"))
		if err != nil {
			t.Fatal(err)
		}
		awaitDocument(old.JobSet)
		first.Close()
		journal.Put("resume-finished", forgetProgress(t, journal, "resume-finished"))

		sub, err := client(journal, 10).Resume(ctx, "resume-finished")
		if err != nil || sub == nil {
			t.Fatalf("Resume = %v, %v", sub, err)
		}
		if status, _ := sub.Status(); status != scheduler.SetCompleted {
			t.Fatalf("status after catch-up = %q, want Completed from the document", status)
		}
		if _, ok := sub.OutputDirectory("second"); !ok {
			t.Fatal("catch-up did not recover second's directory")
		}
	})

	t.Run("destroyed while down", func(t *testing.T) {
		journal := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
		first := client(journal, 10)
		old, err := first.Submit(ctx, spec("resume-gone"))
		if err != nil {
			t.Fatal(err)
		}
		awaitDocument(old.JobSet)
		first.Close()
		journal.Put("resume-gone", forgetProgress(t, journal, "resume-gone"))
		if err := wsrf.NewResourceClient(g.Client, old.JobSet).Destroy(ctx); err != nil {
			t.Fatal(err)
		}

		sub, err := client(journal, 10).Resume(ctx, "resume-gone")
		if sub != nil || err == nil || !strings.Contains(err.Error(), "no longer exists") {
			t.Fatalf("Resume = %v, %v; want the set reported gone", sub, err)
		}
		if _, ok, _ := journal.Get("resume-gone"); ok {
			t.Fatal("the row of a destroyed set was kept")
		}
	})

	t.Run("file server address taken", func(t *testing.T) {
		journal := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
		first := client(journal, 60000)
		if _, err := first.Submit(ctx, spec("resume-squatted")); err != nil {
			t.Fatal(err)
		}
		// first stays up: its file server still holds the journaled port.
		sub, err := client(journal, 60000).Resume(ctx, "resume-squatted")
		if sub != nil || err == nil || !strings.Contains(err.Error(), "cannot be served again") {
			t.Fatalf("Resume = %v, %v; want the re-bind failure", sub, err)
		}
	})
}

// forgetProgress rewrites a journal row to what a client killed right
// after Submit left behind: no status, no directories.
func forgetProgress(t *testing.T, journal *resourcedb.Table, name string) *xmlutil.Element {
	t.Helper()
	row, ok, err := journal.Get(name)
	if err != nil || !ok {
		t.Fatalf("journal row %q: %v %v", name, ok, err)
	}
	row.Child(qSubStatus).Text = ""
	kept := row.Children[:0]
	for _, el := range row.Children {
		if el.Name != qSubJob {
			kept = append(kept, el)
		}
	}
	row.Children = kept
	return row
}

// TestResumeReadsAParentRow: a row written before the file server
// address was journaled (no Files element) still resumes.
func TestResumeReadsAParentRow(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	ctx := testCtx(t)
	c := testClient(t, g)
	c.AddFile("j.app", Script("write out.txt data", "exit 0"))
	old, err := c.Submit(ctx, NewJobSet("parent-row").Add("j", Local("j.app")).Outputs("out.txt").Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	journal := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
	journal.Put("parent-row", xmlutil.NewContainer(qSubmission,
		xmlutil.NewElement(qSubSet, old.JobSet.String()),
		xmlutil.NewElement(qSubTopic, old.Topic),
		xmlutil.NewElement(qSubStatus, ""),
	))
	sub, err := configuredClient(t, g, true, func(cfg *ClientConfig) { cfg.Journal = journal }).Resume(ctx, "parent-row")
	if err != nil || sub == nil {
		t.Fatalf("Resume = %v, %v", sub, err)
	}
	if out, err := sub.FetchOutput(ctx, "j", "out.txt"); err != nil || string(out) != "data" {
		t.Fatalf("fetch = %q, %v", out, err)
	}
}
