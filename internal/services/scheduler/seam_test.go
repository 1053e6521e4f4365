package scheduler

// The seam around the job-set state machine: every way a set enters a
// master's memory goes through takeOn, every way it leaves through letGo.
// These tests hold the seam to what the copies it replaced each had to
// remember: nothing stays registered, no timer outlives the set and no
// machine stays charged for a placement of it.

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func newSeam(t *testing.T) *seam {
	c := &seam{t: t}
	c.h = newSSHarness(t, Greedy{}, nil, "node-a")
	c.m = c.h.ss
	c.m.jobTimeout = time.Hour // every acked Run arms a watchdog that stays quiet
	c.h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "seam", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	_, topic, err := c.h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.id = strings.TrimPrefix(topic, topicPrefix)
	return c
}

// awaitWatched waits until the set is live with its job's watchdog armed —
// the Run was acked — and notes the run.
func (c *seam) awaitWatched() {
	c.t.Helper()
	var r *run
	eventually(c.t, "a live run with an armed watchdog", func() bool {
		if r = c.m.sets.get(c.id); r == nil {
			return false
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.watchdogs) == 1
	})
	c.runs = append(c.runs, r)
}

// restart is a crash mid-run and the start after it: the master forgets
// the set and hears nothing more of its old runs, whose placements and
// timers died with the process, then recovers from the documents.
func (c *seam) restart() {
	c.t.Helper()
	c.m.sets.forgetAll()
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
	if _, err := c.h.client.Call(context.Background(), c.epr(), ActionCancel, cancelRequest()); err != nil {
		c.t.Fatal(err)
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
}

func TestEnterLeaveSeam(t *testing.T) {
	enters := []struct {
		name  string
		enter func(c *seam)
	}{
		{"Submit", func(*seam) {}},
		{"Recover", func(c *seam) {
			c.awaitWatched()
			c.restart()
		}},
	}
	leaves := []struct {
		name  string
		leave func(c *seam)
	}{
		{"Destroy", (*seam).destroy},
		{"terminal, then Destroy", func(c *seam) {
			c.cancel()
			if c.m.sets.get(c.id) == nil {
				c.t.Fatal("a terminal set left the registry before its resource was destroyed")
			}
			c.destroy()
		}},
	}
	for _, e := range enters {
		for _, l := range leaves {
			t.Run(e.name+"/"+l.name, func(t *testing.T) {
				c := newSeam(t)
				e.enter(c)
				c.awaitWatched()
				l.leave(c)
				c.gone()
			})
		}
	}
}

// TestCredentialsLostIsOneVerdict: a secured set that outlived its
// credentials fails as a set, with the one reason that says so — nothing of
// it can be dispatched, its failure handler included.
func TestCredentialsLostIsOneVerdict(t *testing.T) {
	t.Run("Recover", func(t *testing.T) {
		var dispatched atomic.Int32
		accounts := wssec.StaticAccounts{"scientist": "pw"}
		creds := wssec.Credentials{Username: "scientist", Password: "pw"}
		h := newSSHarnessCfg(t, Greedy{}, accounts, func(cfg *Config) {
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
		waitStarted(t, h.events)
		before := dispatched.Load()

		// The crash takes the credentials with it.
		h.ss.sets.forgetAll()
		if _, err := h.ss.Recover(context.Background()); err != nil {
			t.Fatal(err)
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
		if detail != credentialsLost {
			t.Fatalf("the set failed with %q, want %q", detail, credentialsLost)
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
		if v.Status != SetFailed {
			t.Fatalf("status %q, want %q", v.Status, SetFailed)
		}
		for _, jv := range v.Jobs {
			if jv.Status != JobCancelled {
				t.Fatalf("job %s left %q, want %q", jv.Name, jv.Status, JobCancelled)
			}
		}
	})
}

// TestRacingWaysInRegisterOnce: a start's Recover and the Recovers it
// booked to retry itself can all come by the same set at once. The set a
// crash left Running is registered once, dispatched once, and reads
// Running while it runs.
func TestRacingWaysInRegisterOnce(t *testing.T) {
	t.Run("running at the crash", func(t *testing.T) {
		var dispatched atomic.Int32
		h := newSSHarnessCfg(t, Greedy{}, nil, func(cfg *Config) {
			cfg.OnDispatch = func(DispatchRecord) { dispatched.Add(1) }
		}, "node-a")
		m := h.ss
		h.files.Publish("j.app", procspawn.BuildScript("compute 200000", "exit 0"))
		spec := &JobSetSpec{Name: "raced", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
		// Acked, and forgotten before anything was dispatched: the
		// document is all there is of the set.
		r := m.newRun("raced-1", spec, h.filesEPR(), h.listenerEPR(), wssec.Credentials{})
		if _, err := m.svc.CreateResource(r.id, jobSetDocument(r)); err != nil {
			t.Fatal(err)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := m.Recover(context.Background()); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()

		waitStarted(t, h.events)
		if doc, err := m.home.Load(r.id); err != nil || doc.ChildText(QStatus) != SetRunning {
			t.Fatalf("a status read beside the running job says %q (err %v), want %q", doc.ChildText(QStatus), err, SetRunning)
		}
		if got := h.waitTerminal(t, r.topic); got != "completed" {
			t.Fatalf("terminal event %q", got)
		}
		if n := dispatched.Load(); n != 1 {
			t.Fatalf("the one job was dispatched %d times", n)
		}
		if n := m.sets.count(); n != 1 {
			t.Fatalf("registry holds %d entries for one set", n)
		}
	})
}
