package scheduler

// The master's account of its own placements (scheduler.go: placements,
// place, step): what Pick is shown, and that every charge is given back by
// whatever ends the attempt. The machines here are fakes whose Execution
// Service the test plays — each Run is announced and answered as the test
// says, lifecycle events arrive when the test sends them — so every ending
// is reached by decree, not by timing.

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/services/execution"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// TestViewCountsOwnPlacementsAndForeignLoad: what Pick sees of a machine is
// the load this grid did not cause plus what this master has placed there,
// clamped like the machine's own report; a report without GridLoad is all
// foreign, so its grid jobs count twice — toward spreading, never herding.
func TestViewCountsOwnPlacementsAndForeignLoad(t *testing.T) {
	proc := func(host string, util float64, gridLoad int) nodeinfo.Processor {
		return nodeinfo.Processor{Host: host, Cores: 2, SpeedMHz: 2000, RAMMB: 1024, Utilization: util, GridLoad: gridLoad}
	}
	cases := []struct {
		name    string
		procs   []nodeinfo.Processor
		charged map[string]int
		view    []float64
		pick    string
	}{
		{"foreign load loses to one charged attempt on two cores",
			[]nodeinfo.Processor{proc("a", 0.6, 0), proc("b", 0, 0)}, map[string]int{"b": 1}, []float64{0.6, 0.5}, "b"},
		{"a report that trails the charge is not counted twice",
			[]nodeinfo.Processor{proc("a", 0.5, 1), proc("b", 0.6, 0)}, map[string]int{"a": 1}, []float64{0.5, 0.6}, "a"},
		{"a report that still shows an attempt already over gives the slot back",
			[]nodeinfo.Processor{proc("a", 1, 2), proc("b", 0.6, 0)}, map[string]int{"a": 1}, []float64{0.5, 0.6}, "a"},
		{"no GridLoad element: all foreign, grid jobs double-counted",
			[]nodeinfo.Processor{proc("a", 0.5, 0), proc("b", 0.75, 0)}, map[string]int{"a": 1}, []float64{1, 0.75}, "b"},
		{"oversubscription clamps at 1 and ties go to the first host",
			[]nodeinfo.Processor{proc("a", 0, 0), proc("b", 0, 0)}, map[string]int{"a": 3, "b": 5}, []float64{1, 1}, "a"},
		{"a machine with no cores keeps what it reported",
			[]nodeinfo.Processor{{Host: "a", Utilization: 0.3}, proc("b", 0.9, 0)}, map[string]int{"a": 1}, []float64{0.3, 0.9}, "b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reported := make([]float64, len(tc.procs))
			for i, p := range tc.procs {
				reported[i] = p.Utilization
			}
			view := (&placements{byHost: tc.charged}).view(tc.procs)
			for i, p := range view {
				if p.Utilization != tc.view[i] {
					t.Errorf("%s: view utilization %v, want %v", p.Host, p.Utilization, tc.view[i])
				}
				if tc.procs[i].Utilization != reported[i] {
					t.Errorf("%s: the shared catalog's own entry now reads %v", p.Host, tc.procs[i].Utilization)
				}
			}
			if got, err := (Greedy{}).Pick(view, Locality{}, 0); err != nil || got.Host != tc.pick {
				t.Fatalf("greedy picked %q (err %v), want %q", got.Host, err, tc.pick)
			}
		})
	}
}

// fakeRun is one Run request a fake machine received.
type fakeRun struct{ host, job, attempt string }

// fakeGrid is an ssHarness with no real machine: hosts "a" and "b", equal,
// two cores each, registered with the NIS, whose ES the test plays.
type fakeGrid struct {
	t    *testing.T
	h    *ssHarness
	runs chan fakeRun

	mu     sync.Mutex
	answer func(fakeRun) error // how a Run is answered; nil acks
}

func newFakeGrid(t *testing.T) *fakeGrid {
	t.Helper()
	g := &fakeGrid{t: t, h: newSSHarness(t, Greedy{}, nil), runs: make(chan fakeRun, 16)}
	for _, host := range []string{"a", "b"} {
		esEPR := wsa.NewEPR("inproc://" + host + "/ExecutionService")
		es := soap.NewDispatcher()
		es.Register(execution.ActionRun, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
			run := fakeRun{host, req.Body.ChildText(execution.QJobName), req.Body.ChildText(execution.QAttempt)}
			g.mu.Lock()
			answer := g.answer
			g.mu.Unlock()
			if answer != nil {
				if err := answer(run); err != nil {
					return nil, err
				}
			}
			g.runs <- run
			return soap.New(xmlutil.NewContainer(xmlutil.Q(execution.NS, "RunJobResponse"),
				esEPR.WithProperty(wsrf.QResourceID, run.attempt).ElementNamed(xmlutil.Q(execution.NS, "Job")),
				wsa.NewEPR("inproc://"+host+"/FileSystemService").WithProperty(wsrf.QResourceID, run.attempt).ElementNamed(execution.QDirectory),
			)), nil
		})
		es.Register(execution.ActionKill, func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
			return soap.New(&xmlutil.Element{Name: xmlutil.Q(execution.NS, "KillResponse")}), nil
		})
		mux := soap.NewMux()
		mux.Handle("/ExecutionService", es)
		g.h.network.Register(host, transport.NewServer(mux))
		p := nodeinfo.Processor{Host: host, ES: esEPR, Cores: 2, SpeedMHz: 2000, RAMMB: 1024}
		if _, err := g.h.client.Call(context.Background(), g.h.ss.nis, nodeinfo.ActionReport, nodeinfo.ReportRequest(p)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (g *fakeGrid) answerWith(fn func(fakeRun) error) {
	g.mu.Lock()
	g.answer = fn
	g.mu.Unlock()
}

// bag submits n independent jobs that each may be retried retry times.
func (g *fakeGrid) bag(n, retry int) (set wsa.EndpointReference, topic string) {
	g.t.Helper()
	spec := &JobSetSpec{Name: "bag"}
	for i := 0; i < n; i++ {
		spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("j%d", i), Executable: "local://x.app", Retry: RetryPolicy{Limit: retry}})
	}
	set, topic, err := g.h.submit(g.t, spec, nil)
	if err != nil {
		g.t.Fatal(err)
	}
	return set, topic
}

// acked waits for n Run requests to have been acked and returns them by job.
func (g *fakeGrid) acked(n int) map[string]fakeRun {
	g.t.Helper()
	out := make(map[string]fakeRun, n)
	for len(out) < n {
		select {
		case run := <-g.runs:
			out[run.job] = run
		case <-time.After(10 * time.Second):
			g.t.Fatalf("only %v dispatched, want %d jobs", out, n)
		}
	}
	return out
}

// jobEventNote is a lifecycle event of one attempt as an ES publishes it.
func jobEventNote(topic, job, attempt, kind string, exitCode int) wsn.Notification {
	msg := xmlutil.NewContainer(xmlutil.Q(execution.NS, "JobEvent"),
		xmlutil.NewElement(execution.QJobName, job),
		xmlutil.NewElement(execution.QStatus, kind),
		xmlutil.NewElement(execution.QAttempt, attempt),
	)
	if kind == execution.EventExited {
		msg.Append(xmlutil.NewElement(execution.QExitCode, fmt.Sprint(exitCode)))
	}
	return wsn.Notification{Topic: topic + "/" + job + "/" + kind, Message: msg}
}

// deliver sends the scheduler a lifecycle event of one attempt, as the
// broker would.
func (g *fakeGrid) deliver(topic string, run fakeRun, kind string, exitCode int) {
	g.t.Helper()
	n := jobEventNote(topic, run.job, run.attempt, kind, exitCode)
	if err := g.h.client.Notify(context.Background(), g.h.ss.ConsumerEPR(), wsn.ActionNotify, wsn.NotifyBody(n)); err != nil {
		g.t.Fatal(err)
	}
}

// ledgerIs waits until the placement ledger reads want — and agrees with
// the scheduler's own books: each host is charged exactly the live placed
// attempts of its live sets.
func (g *fakeGrid) ledgerIs(when string, want map[string]int) {
	g.t.Helper()
	var charged, live map[string]int
	deadline := time.Now().Add(10 * time.Second)
	for {
		charged, live = g.h.ss.Placed(), make(map[string]int)
		for _, j := range g.h.ss.InFlight() {
			if jobLive(j.State) && j.Node != "" {
				live[j.Node]++
			}
		}
		if maps.Equal(charged, want) && maps.Equal(live, want) {
			return
		}
		if time.Now().After(deadline) {
			g.t.Fatalf("%s: hosts are charged %v and have live placed attempts %v, want %v", when, charged, live, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlacementLedgerConserved: two jobs dispatched at once over a cached
// catalog land one per machine — the second dispatch sees the first's
// charge, no report needed — and whatever then ends an attempt gives back
// exactly that attempt's charge: each host is charged its live placed
// attempts after every step, and nothing once the set has its verdict.
func TestPlacementLedgerConserved(t *testing.T) {
	both := map[string]int{"a": 1, "b": 1}
	none := map[string]int{}
	cases := []struct {
		name  string
		retry int
		// window, when set, shortens the watchdog's.
		window time.Duration
		// failFirst makes the first Run of j0 fault.
		failFirst bool
		end       func(g *fakeGrid, set wsa.EndpointReference, topic string, runs map[string]fakeRun)
		verdict   string
	}{
		{"exit", 0, 0, false, func(g *fakeGrid, _ wsa.EndpointReference, topic string, runs map[string]fakeRun) {
			g.deliver(topic, runs["j0"], execution.EventStarted, 0)
			g.deliver(topic, runs["j0"], execution.EventExited, 0)
			g.ledgerIs("j0 exited", map[string]int{runs["j1"].host: 1})
			g.deliver(topic, runs["j0"], execution.EventExited, 0) // a duplicate frees nothing more
			g.deliver(topic, runs["j1"], execution.EventExited, 0)
		}, "completed"},
		{"nonzero exit, retried", 1, 0, false, func(g *fakeGrid, _ wsa.EndpointReference, topic string, runs map[string]fakeRun) {
			g.deliver(topic, runs["j0"], execution.EventExited, 1)
			again := g.acked(1)["j0"]
			if again.attempt == runs["j0"].attempt || again.host != runs["j0"].host {
				t.Fatalf("retry of %+v ran as %+v, want a new attempt on the machine the failure freed", runs["j0"], again)
			}
			g.ledgerIs("j0 retried", both)
			g.deliver(topic, runs["j0"], execution.EventExited, 0) // the dead attempt's: history
			g.ledgerIs("the dead attempt exited again", both)
			g.deliver(topic, again, execution.EventExited, 0)
			g.deliver(topic, runs["j1"], execution.EventExited, 0)
		}, "completed"},
		{"dispatch failure, retried", 1, 0, true, func(g *fakeGrid, _ wsa.EndpointReference, topic string, runs map[string]fakeRun) {
			g.deliver(topic, runs["j0"], execution.EventExited, 0)
			g.deliver(topic, runs["j1"], execution.EventExited, 0)
		}, "completed"},
		{"dispatch failure, final", 0, 0, true, nil, "failed"},
		{"watchdog", 0, 500 * time.Millisecond, false,
			func(*fakeGrid, wsa.EndpointReference, string, map[string]fakeRun) {}, "failed"},
		{"Cancel", 0, 0, false, func(g *fakeGrid, set wsa.EndpointReference, _ string, _ map[string]fakeRun) {
			if _, err := g.h.client.Call(context.Background(), set, ActionCancel, cancelRequest()); err != nil {
				t.Fatal(err)
			}
		}, "cancelled"},
		{"Destroy", 0, 0, false, func(g *fakeGrid, set wsa.EndpointReference, _ string, _ map[string]fakeRun) {
			if err := wsrf.NewResourceClient(g.h.client, set).Destroy(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newFakeGrid(t)
			if tc.window > 0 {
				g.h.ss.jobTimeout = tc.window
			}
			if tc.failFirst {
				failed := false
				g.answerWith(func(run fakeRun) error {
					if run.job != "j0" || failed {
						return nil
					}
					failed = true
					return soap.ReceiverFault("es: no room")
				})
			}
			set, topic := g.bag(2, tc.retry)
			if tc.end != nil {
				runs := g.acked(2)
				g.ledgerIs("both jobs placed", both)
				if runs["j0"].host == runs["j1"].host {
					t.Fatalf("both jobs ran on %s: the second dispatch did not see the first's charge", runs["j0"].host)
				}
				tc.end(g, set, topic, runs)
			}
			if tc.verdict != "" {
				if got := g.h.waitTerminal(t, topic); got != tc.verdict {
					t.Fatalf("terminal event %q, want %q", got, tc.verdict)
				}
			}
			g.ledgerIs("after the verdict", none)
		})
	}
}

// TestPlacementLosingToCancelSendsNoRun: a set cancelled between an
// attempt's reservation and its placement — here while the dispatch polls
// the NIS — places nothing: no charge, and no Run that a Kill would then
// have to chase.
func TestPlacementLosingToCancelSendsNoRun(t *testing.T) {
	g := newFakeGrid(t)
	nis := g.h.ss.nis
	polled, release := make(chan struct{}, 1), make(chan struct{})
	proxy := soap.NewDispatcher()
	var polls atomic.Int32
	proxy.Register(nodeinfo.ActionGetProcessors, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		if polls.Add(1) == 1 { // the take-on's poll fails: the dispatch polls again
			return nil, soap.ReceiverFault("nis: not yet")
		}
		polled <- struct{}{}
		<-release
		body, err := g.h.client.Call(ctx, nis, nodeinfo.ActionGetProcessors, req.Body)
		if err != nil {
			return nil, err
		}
		return soap.New(body), nil
	})
	mux := soap.NewMux()
	mux.Handle("/NodeInfoService", proxy)
	g.h.network.Register("slow-nis", transport.NewServer(mux))
	g.h.ss.nis = wsa.NewEPR("inproc://slow-nis/NodeInfoService")

	set, topic := g.bag(1, 0)
	<-polled // reserved, not yet placed
	if _, err := g.h.client.Call(context.Background(), set, ActionCancel, cancelRequest()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if got := g.h.waitTerminal(t, topic); got != "cancelled" {
		t.Fatalf("terminal event %q", got)
	}
	r := g.h.ss.sets.live(topic)
	eventually(t, "the dispatch to give up", func() bool { return len(g.h.ss.dispatchSem) == 0 })
	select {
	case run := <-g.runs:
		t.Fatalf("a cancelled attempt was sent: %+v", run)
	default:
	}
	g.ledgerIs("cancelled before placement", map[string]int{})
	r.mu.Lock()
	defer r.mu.Unlock()
	if j := r.st.jobs[0]; j.state != JobCancelled || j.node != "" {
		t.Fatalf("job is %s on %q, want Cancelled and never placed", j.state, j.node)
	}
}

// TestVerdictNamesNodeWhenExitOvertakesRunResponse: the node is the
// attempt's from placement, before Run is sent, so a job whose exit is
// applied while its Run response is still on the way is journaled
// Completed with its node.
func TestVerdictNamesNodeWhenExitOvertakesRunResponse(t *testing.T) {
	g := newFakeGrid(t)
	held, release := make(chan fakeRun, 1), make(chan struct{})
	g.answerWith(func(run fakeRun) error {
		held <- run
		<-release
		return nil
	})
	set, topic := g.bag(1, 0)
	run := <-held
	g.deliver(topic, run, execution.EventExited, 0)
	if got := g.h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	row := func() *xmlutil.Element {
		t.Helper()
		states, err := wsrf.NewResourceClient(g.h.client, set).GetProperty(context.Background(), QJobState)
		if err != nil || len(states) != 1 {
			t.Fatalf("JobState: %v, err %v", states, err)
		}
		return states[0]
	}
	if st := row(); st.Attr(qStatusAttr) != JobCompleted || st.Attr(qNodeAttr) != run.host {
		t.Fatalf("the verdict's row reads %s on %q, want Completed on %q", st.Attr(qStatusAttr), st.Attr(qNodeAttr), run.host)
	}
	g.ledgerIs("completed ahead of its Run response", map[string]int{})
	close(release)
	g.acked(1)
	eventually(t, "the late Run response to record the directory", func() bool { return row().Attr(qDirAttr) != "" })
	if st := row(); st.Attr(qNodeAttr) != run.host {
		t.Fatalf("after the late Run response the row names node %q", st.Attr(qNodeAttr))
	}
	g.ledgerIs("after the late Run response", map[string]int{})
}
