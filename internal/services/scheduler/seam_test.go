package scheduler

// The seam around the job-set state machine: every way a set enters a
// master's memory goes through takeOn (or park), every way it leaves
// through letGo. These tests hold the seam to what the copies it replaced
// each had to remember: nothing stays registered, the tenant's running
// slot comes back exactly once, no timer outlives the set and no machine
// stays charged for a placement of it.

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/procspawn"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
)

// seam is one enter × leave case: a master, a one-job set that never
// finishes by itself, and every run the set has had since the master last
// started.
type seam struct {
	t    *testing.T
	h    *ssHarness
	m    *Service
	id   string
	runs []*run
}

func newSeam(t *testing.T, admit bool) *seam {
	c := &seam{t: t}
	c.h = newSSHarnessCfg(t, Greedy{}, nil, func(cfg *Config) {
		cfg.JobTimeout = time.Hour // every acked Run arms a watchdog
		if admit {
			cfg.Admission = admission.New(admission.Config{})
		}
	}, "node-a")
	c.m = c.h.ss
	c.h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "seam", Class: admission.ClassScavenger,
		Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	_, topic, err := c.h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.id = strings.TrimPrefix(topic, topicPrefix)
	return c
}

// pump runs the admission pump until the returned stop.
func (c *seam) pump() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	c.m.StartAdmission(ctx)
	return cancel
}

// awaitWatched waits until the set is live with its job's watchdog armed —
// the Run was acked — and notes the run.
func (c *seam) awaitWatched() {
	c.t.Helper()
	var r *run
	eventually(c.t, "a live run with an armed watchdog", func() bool {
		if r = c.m.sets.get(c.id).run; r == nil {
			return false
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.watchdogs) == 1
	})
	c.runs = append(c.runs, r)
}

// restart is a crash mid-run and the start after it: the master forgets
// the set and hears nothing more of its old runs, whose running slots,
// placements and timers died with the process, then recovers from the
// documents.
func (c *seam) restart() {
	c.t.Helper()
	c.m.sets.forgetAll()
	for _, r := range c.runs {
		c.m.releaseAdmission(r)
	}
	c.m.placed.mu.Lock()
	clear(c.m.placed.byHost)
	c.m.placed.mu.Unlock()
	c.runs = nil
	if n, err := c.m.Recover(context.Background()); n != 1 || err != nil {
		c.t.Fatalf("Recover resumed %d, err %v", n, err)
	}
}

func (c *seam) epr() wsa.EndpointReference { return c.m.svc.EPRFor(c.id) }

func (c *seam) destroy() {
	c.t.Helper()
	if err := wsrf.NewResourceClient(c.h.client, c.epr()).Destroy(context.Background()); err != nil {
		c.t.Fatal(err)
	}
}

func (c *seam) cancel() {
	c.t.Helper()
	if _, err := c.h.client.Call(context.Background(), c.epr(), ActionCancel, CancelRequest()); err != nil {
		c.t.Fatal(err)
	}
}

// preempt evicts the live run and waits until it is parked again.
func (c *seam) preempt() {
	c.t.Helper()
	c.m.fire(context.Background(), c.m.sets.get(c.id).run, event{kind: evPreempt})
	eventually(c.t, "the evicted set to be parked again", func() bool { return c.m.sets.get(c.id).parked() })
	if st := c.m.adm.Stats(); st.Depth != 1 {
		c.t.Fatalf("evicted set not back in the queue: %+v", st)
	}
}

// gone is the assertion every pair ends on.
func (c *seam) gone() {
	c.t.Helper()
	if n := c.m.sets.count(); n != 0 {
		c.t.Fatalf("registry holds %d sets, want none", n)
	}
	for _, r := range c.runs {
		r.mu.Lock()
		armed := len(r.watchdogs)
		r.mu.Unlock()
		if armed != 0 {
			c.t.Fatalf("%d watchdogs still armed", armed)
		}
	}
	if placed := c.m.Placed(); len(placed) != 0 {
		c.t.Fatalf("placements still charged: %v", placed)
	}
	if c.m.adm == nil {
		return
	}
	// A destroy's effects run off the hook's goroutine.
	eventually(c.t, "the running-slot ledger to balance", func() bool {
		st := c.m.adm.Stats()
		for _, ten := range st.Tenants {
			if ten.Running != 0 {
				return false
			}
		}
		return st.Depth == 0
	})
}

func TestEnterLeaveSeam(t *testing.T) {
	enters := []struct {
		name  string
		admit bool
		enter func(c *seam) (stopPump func())
	}{
		{"Submit", false, func(c *seam) func() { return func() {} }},
		{"activation", true, func(c *seam) func() { return c.pump() }},
		{"Recover", true, func(c *seam) func() {
			stop := c.pump()
			c.awaitWatched()
			stop()
			c.restart()
			return func() {}
		}},
	}
	leaves := []struct {
		name  string
		admit bool // needs an admission queue
		leave func(c *seam)
	}{
		{"Destroy", false, (*seam).destroy},
		{"preemption, then Destroy while parked", true, func(c *seam) {
			c.preempt()
			c.destroy()
		}},
		{"preemption, then Cancel while parked", true, func(c *seam) {
			c.preempt()
			c.cancel()
			if doc, err := c.m.home.Load(c.id); err != nil || doc.ChildText(QStatus) != SetCancelled {
				c.t.Fatalf("cancelled while parked: status %q, err %v", doc.ChildText(QStatus), err)
			}
		}},
		{"terminal, then Destroy", false, func(c *seam) {
			c.cancel()
			if c.m.sets.get(c.id).run == nil {
				c.t.Fatal("a terminal set left the registry before its resource was destroyed")
			}
			c.destroy()
		}},
	}
	for _, e := range enters {
		for _, l := range leaves {
			if l.admit && !e.admit {
				continue // a set that never queued has no queue to be evicted into
			}
			t.Run(e.name+"/"+l.name, func(t *testing.T) {
				c := newSeam(t, e.admit)
				stopPump := e.enter(c)
				c.awaitWatched()
				stopPump() // a requeued entry must stay parked
				l.leave(c)
				c.gone()
			})
		}
	}
}

// TestCredentialsLostIsOneVerdict: a secured set that outlived its
// credentials fails as a set — nothing of it can be dispatched, its
// failure handler included — and it reads the same whichever way the
// restarted master came by it.
func TestCredentialsLostIsOneVerdict(t *testing.T) {
	type outcome struct {
		View   JobSetView
		Detail string
	}
	accounts := wssec.StaticAccounts{"scientist": "pw"}
	creds := wssec.Credentials{Username: "scientist", Password: "pw"}
	found := func(t *testing.T, pumpBeforeCrash bool) outcome {
		var dispatched atomic.Int32
		h := newSSHarnessCfg(t, Greedy{}, accounts, func(cfg *Config) {
			cfg.Admission = admission.New(admission.Config{})
			cfg.OnDispatch = func(DispatchRecord) { dispatched.Add(1) }
		}, "node-a")
		h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
		h.files.Publish("sweep.app", procspawn.BuildScript("exit 0"))
		spec := &JobSetSpec{Name: "sec", Jobs: []JobSpec{
			{Name: "work", Executable: "local://long.app"},
			{Name: "sweep", Executable: "local://sweep.app", After: []string{"work"}, RunOn: RunOnFailure},
		}}
		setEPR, topic, err := h.submit(t, spec, &creds)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if pumpBeforeCrash {
			h.ss.StartAdmission(ctx)
			waitStarted(t, h.events)
		}
		before := dispatched.Load()

		// The crash takes the credentials with it (and, with no pump
		// reading it yet, the queue).
		h.ss.sets.forgetAll()
		if !pumpBeforeCrash {
			h.ss.adm = admission.New(admission.Config{})
		}
		if _, err := h.ss.Recover(ctx); err != nil {
			t.Fatal(err)
		}
		if !pumpBeforeCrash {
			h.ss.StartAdmission(ctx)
		}
		var detail string
		for deadline := time.After(20 * time.Second); detail == ""; {
			select {
			case n := <-h.events:
				if ev, ok := ParseEvent(n); ok && ev.Set == topic && ev.Job == "" {
					if ev.Status != SetFailed {
						t.Fatalf("set event %q, want %q", ev.Status, SetFailed)
					}
					detail = ev.Detail
				}
			case <-deadline:
				t.Fatal("the set never failed")
			}
		}
		id := setEPR.Property(wsrf.QResourceID)
		waitNotified(t, h.ss, id)
		doc, err := h.ss.WSRF().Home().Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := dispatched.Load() - before; n != 0 {
			t.Fatalf("%d jobs dispatched without credentials", n)
		}
		v := ParseJobSetDocument(doc)
		v.Topic = "" // the one thing two submissions never share
		return outcome{v, detail}
	}
	var byRecover, byActivation outcome
	t.Run("Recover", func(t *testing.T) { byRecover = found(t, true) })
	t.Run("activation after restart", func(t *testing.T) { byActivation = found(t, false) })
	if byRecover.View.Status != SetFailed {
		t.Fatalf("status %q, want %q", byRecover.View.Status, SetFailed)
	}
	for _, jv := range byRecover.View.Jobs {
		if jv.Status != JobCancelled {
			t.Fatalf("job %s left %q, want %q", jv.Name, jv.Status, JobCancelled)
		}
	}
	if !reflect.DeepEqual(byRecover, byActivation) {
		t.Fatalf("one condition, two outcomes:\n Recover:    %+v\n activation: %+v", byRecover, byActivation)
	}
}

// TestRacingWaysInRegisterOnce: a start's Recover, the Recover it booked
// to retry itself and the admission pump can all come by the same set at
// once. Whichever document they find — still Queued, or Running after a
// crash — the set is registered once, scheduled once and holds one slot.
func TestRacingWaysInRegisterOnce(t *testing.T) {
	for _, crashed := range []bool{false, true} {
		name := "parked"
		if crashed {
			name = "running at the crash"
		}
		t.Run(name, func(t *testing.T) {
			var dispatched atomic.Int32
			queue := admission.New(admission.Config{})
			h := newSSHarnessCfg(t, Greedy{}, nil, func(cfg *Config) {
				cfg.Admission = queue
				cfg.OnDispatch = func(DispatchRecord) { dispatched.Add(1) }
			}, "node-a")
			m := h.ss
			h.files.Publish("j.app", procspawn.BuildScript("compute 20000", "exit 0"))
			spec := &JobSetSpec{Name: "raced", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
			_, topic, err := h.submit(t, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if crashed {
				// Activated, then forgotten before anything was dispatched:
				// the document says Running and nobody holds the set.
				id := strings.TrimPrefix(topic, topicPrefix)
				e, err := queue.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				doc, err := m.home.Load(id)
				if err != nil {
					t.Fatal(err)
				}
				r, err := m.restoreRun(id, doc, wssec.Credentials{})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.persist(r, effects{status: true}, nil); err != nil {
					t.Fatal(err)
				}
				m.sets.forgetAll()
				queue.Done(e.Tenant)
			}

			start := make(chan struct{})
			var wg sync.WaitGroup
			recoverOnce := func() {
				if _, err := m.Recover(ctx); err != nil {
					t.Error(err)
				}
			}
			for _, way := range []func(){func() { m.StartAdmission(ctx) }, recoverOnce, recoverOnce} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					way()
				}()
			}
			close(start)
			wg.Wait()

			if got := h.waitTerminal(t, topic); got != "completed" {
				t.Fatalf("terminal event %q", got)
			}
			if n := dispatched.Load(); n != 1 {
				t.Fatalf("the one job was dispatched %d times", n)
			}
			if n := m.sets.count(); n != 1 {
				t.Fatalf("registry holds %d entries for one set", n)
			}
			eventually(t, "the running-slot ledger to balance", func() bool {
				st := queue.Stats()
				for _, ten := range st.Tenants {
					if ten.Running != 0 {
						return false
					}
				}
				return st.Depth == 0
			})
		})
	}
}
