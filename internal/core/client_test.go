package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestSubmitLoop: the submit loop is one attempt — Submit is not
// idempotent — and a fault comes back to the caller as it was given.
func TestSubmitLoop(t *testing.T) {
	t.Run("any other fault returned at once", func(t *testing.T) {
		g := testGrid(t, NodeSpec{Name: "solo"})
		_, calls := door(g, "a", func(int, *soap.Envelope) error { return soap.ReceiverFault("boom") })
		c := configuredClient(t, g, false, func(cfg *ClientConfig) { cfg.Master = "inproc://a" })
		c.AddFile("j.app", Script("exit 0"))
		_, err := c.Submit(testCtx(t), NewJobSet("once").Add("j", Local("j.app")).Spec())
		if err == nil || !strings.Contains(err.Error(), "boom") || calls.Load() != 1 {
			t.Fatalf("want the fault after one Submit, got %v after %d", err, calls.Load())
		}
	})
}

// TestCredentialRule: the password crosses as a digest, never as text.
func TestCredentialRule(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	t.Run("digest", func(t *testing.T) {
		var seen *soap.Envelope
		a, _ := door(g, "a", func(_ int, req *soap.Envelope) error {
			seen = req
			return nil
		})
		defer g.Network.Deregister("a")
		c := testClient(t, g)
		c.AddFile("j.app", Script("exit 0"))
		if _, err := c.SubmitTo(testCtx(t), a, scientist, NewJobSet("creds-digest").Add("j", Local("j.app")).Spec()); err != nil {
			t.Fatal(err) // the real Scheduler verified what the door passed on
		}
		if raw, _ := seen.Marshal(); strings.Contains(string(raw), ">pw<") {
			t.Fatalf("password text on the wire:\n%s", raw)
		}
		if tok, err := wssec.ExtractToken(seen); err != nil || tok.PasswordType != wssec.PasswordDigest {
			t.Fatalf("token %+v, %v; want a password digest", tok, err)
		}
	})
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

// TestEventsAheadOfTheSubmitReplyAreReplayed: the broker races the
// Submit response; what arrived first is not lost.
func TestEventsAheadOfTheSubmitReplyAreReplayed(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	dir := wsa.NewEPR("inproc://solo/FileSystemService")
	c.route(context.Background(), directoryEvent("topic-r", "j", dir))
	c.route(context.Background(), setEvent("topic-r", scheduler.SetCompleted))
	c.route(context.Background(), setEvent("topic-other", scheduler.SetFailed))
	sub := c.follow("raced", wsa.NewEPR("inproc://master/x"), "topic-r")
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
// after Submit left behind: no status.
func forgetProgress(t *testing.T, journal *resourcedb.Table, name string) *xmlutil.Element {
	t.Helper()
	row, ok, err := journal.Get(name)
	if err != nil || !ok {
		t.Fatalf("journal row %q: %v %v", name, ok, err)
	}
	row.Child(qSubStatus).Text = ""
	return row
}

// TestResumeReadsAParentRow: a set's journal row holds no job of the
// set, whose document has them all; and rows earlier clients wrote still
// resume: one from before the file server address was journaled (no
// Files element), one from when each job's output directory was copied
// into the row as a Job element.
func TestResumeReadsAParentRow(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	ctx := testCtx(t)
	submitted := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
	c := configuredClient(t, g, false, func(cfg *ClientConfig) { cfg.Journal = submitted })
	c.AddFile("j.app", Script("write out.txt data", "exit 0"))
	spec := NewJobSet("parent-row")
	for _, j := range []string{"j", "k", "l"} {
		spec.Add(j, Local("j.app")).Outputs("out.txt")
	}
	old, err := c.Submit(ctx, spec.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	row, ok, err := submitted.Get("parent-row")
	if err != nil || !ok {
		t.Fatalf("journal row: %v %v", ok, err)
	}
	if got := len(row.Children); got != 4 || row.ChildText(qSubStatus) != scheduler.SetCompleted {
		t.Fatalf("the finished set's journal row is\n%s\nwant its set, topic, status and file server only", row)
	}
	dir, _ := old.OutputDirectory("j")

	for _, tc := range []struct {
		name string
		row  func(files string) []*xmlutil.Element // what follows SetEPR, Topic and Status
	}{
		{"no-files", func(string) []*xmlutil.Element { return nil }},
		{"job-directories", func(files string) []*xmlutil.Element {
			job := xmlutil.NewElement(xmlutil.Q(nsSub, "Job"), "")
			job.SetAttr(xmlutil.Q("", "name"), "j")
			job.SetAttr(xmlutil.Q("", "dir"), dir.String())
			return []*xmlutil.Element{xmlutil.NewElement(qSubFiles, files), job}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := resourcedb.NewStore().MustTable("submissions", resourcedb.StructuredCodec{})
			c := configuredClient(t, g, true, func(cfg *ClientConfig) { cfg.Journal = journal })
			journal.Put("parent-row", xmlutil.NewContainer(qSubmission, append([]*xmlutil.Element{
				xmlutil.NewElement(qSubSet, old.JobSet.String()),
				xmlutil.NewElement(qSubTopic, old.Topic),
				xmlutil.NewElement(qSubStatus, ""),
			}, tc.row(c.FilesEPR().Address)...)...))
			sub, err := c.Resume(ctx, "parent-row")
			if err != nil || sub == nil {
				t.Fatalf("Resume = %v, %v", sub, err)
			}
			for _, j := range []string{"j", "k", "l"} {
				if out, err := sub.FetchOutput(ctx, j, "out.txt"); err != nil || string(out) != "data" {
					t.Fatalf("fetch %s = %q, %v", j, out, err)
				}
			}
		})
	}
}

// TestSubmissionKeepsCopiesOfEPRs: the job and directory EPRs a
// submission learns arrive in a Notify, and so does the job name they
// are kept under. The submission keeps copies, not views of its bytes.
func TestSubmissionKeepsCopiesOfEPRs(t *testing.T) {
	job := wsa.NewEPR("http://node-a:8701/ExecutionService").WithProperty(wsrf.QResourceID, "job-1")
	dir := wsa.NewEPR("http://node-a:8701/FileSystemService").WithProperty(wsrf.QResourceID, "dir-1")
	payload := xmlutil.NewContainer(xmlutil.Q(execution.NS, "JobEvent"),
		xmlutil.NewElement(execution.QJobName, "sum"),
		xmlutil.NewElement(execution.QStatus, "started"),
		dir.ElementNamed(execution.QDirectory))
	data, err := xmlutil.MarshalElement(wsn.NotifyBody(wsn.Notification{Topic: "set-1/sum/started", Producer: job, Message: payload}))
	if err != nil {
		t.Fatal(err)
	}
	body, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := wsn.ParseNotifyBody(body)
	if err != nil || len(ns) != 1 {
		t.Fatalf("%d notifications, %v", len(ns), err)
	}
	ev, ok := scheduler.ParseEvent(ns[0])
	if !ok {
		t.Fatal("the event does not parse")
	}

	sub := &Submission{
		client: &Client{},
		dirs:   make(map[string]wsa.EndpointReference),
		jobs:   make(map[string]wsa.EndpointReference),
		done:   make(chan struct{}),
		events: make(chan wsn.Notification, 1),
	}
	sub.observe(heard{ns[0], ev})
	if !sub.jobs["sum"].Equal(job) || !sub.dirs["sum"].Equal(dir) {
		t.Fatalf("kept job %v, directory %v", sub.jobs["sum"], sub.dirs["sum"])
	}
	var kept []string
	for _, m := range []map[string]wsa.EndpointReference{sub.jobs, sub.dirs} {
		for name, e := range m {
			kept = append(kept, name, e.Address)
			for _, p := range e.ReferenceProperties {
				kept = append(kept, p.Name.Space, p.Name.Local, p.Value)
			}
		}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	for _, s := range kept {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && p >= lo && p < lo+uintptr(len(data)) {
			t.Errorf("the submission keeps %q as a view of the Notify", s)
		}
	}
}
