package scheduler

// Tests for the pure core in jobset.go: no grid, no goroutines, no
// clock. A coreHarness plays the shell — it remembers the attempts the
// core minted, the EPRs the core was told about, the watchdogs it asked
// for and the placements it charged — so effects can be checked against
// what the state had seen.

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"uvacg/internal/wsa"
)

type coreHarness struct {
	t        testing.TB
	st       *setState
	now      time.Time
	attempts [][]string        // per job, every attempt minted, oldest first
	seen     map[string]bool   // EPR strings the core was handed
	armed    map[watchKey]bool // watchdogs asked for and not yet stopped
	charged  map[string]int    // per host, placements charged and not yet freed
	placed   []bool            // per job, placed since it last was Pending
	publishd []string          // set-level publishes, in order
	// after, when set, sees every event and its effects right after the
	// step: where a test plays more of the shell than the bookkeeping here.
	after func(ev event, fx effects)
}

func newCoreHarness(t testing.TB, spec *JobSetSpec) *coreHarness {
	return &coreHarness{
		t:        t,
		st:       newSetState(spec, "n0"),
		now:      time.Unix(1000, 0),
		attempts: make([][]string, len(spec.Jobs)),
		seen:     make(map[string]bool),
		armed:    make(map[watchKey]bool),
		charged:  make(map[string]int),
		placed:   make([]bool, len(spec.Jobs)),
	}
}

// eprOf is the job EPR of one attempt: distinct per attempt, so a kill
// names exactly one process.
func eprOf(attempt string) wsa.EndpointReference {
	return wsa.NewEPR("inproc://node/ExecutionService").WithProperty(QName, attempt)
}

// do feeds one event through step and audits the effects.
func (h *coreHarness) do(ev event) effects {
	h.t.Helper()
	if !ev.jobEPR.IsZero() {
		h.seen[ev.jobEPR.String()] = true
	}
	fx := h.st.step(ev, h.now)
	if fx.reserved != nil {
		h.attempts[fx.reserved.job] = append(h.attempts[fx.reserved.job], fx.reserved.attempt)
	}
	for _, k := range fx.stop {
		delete(h.armed, k)
	}
	for _, k := range fx.arm {
		h.armed[k] = true
	}
	for _, epr := range fx.kill {
		if !h.seen[epr.String()] {
			h.t.Fatalf("kill names %s, an EPR the state never saw", epr)
		}
	}
	if fx.publish != "" {
		h.publishd = append(h.publishd, fx.publish)
	}
	if fx.charge != "" {
		h.charged[fx.charge]++
		h.placed[h.st.index[ev.job]] = true
	}
	for _, host := range fx.free {
		if h.charged[host]--; h.charged[host] == 0 {
			delete(h.charged, host)
		}
	}
	h.conserved()
	if h.after != nil {
		h.after(ev, fx)
	}
	return fx
}

// conserved holds the core to its placement accounting after every step:
// each host is charged exactly its live placed attempts — so nothing once a
// set has its verdict or is destroyed — and a job that was placed
// and is not back in Pending says where.
func (h *coreHarness) conserved() {
	h.t.Helper()
	live := make(map[string]int)
	for i := range h.st.jobs {
		j := &h.st.jobs[i]
		if jobLive(j.state) && j.node != "" {
			live[j.node]++
		}
		if j.state == JobPending {
			h.placed[i] = false
		} else if h.placed[i] && j.node == "" {
			h.t.Fatalf("job %s was placed, is %s and has no node", j.spec.Name, j.state)
		}
	}
	if !maps.Equal(h.charged, live) {
		h.t.Fatalf("hosts are charged %v and have live placed attempts %v (jobs %v)", h.charged, live, h.states())
	}
}

func (h *coreHarness) reserve() *reservation {
	h.t.Helper()
	return h.do(event{kind: evReserve}).reserved
}

// about builds a job event for one attempt, carrying that attempt's job
// and working-directory EPRs the way the ES and the Run response do.
func about(kind eventKind, job, attempt string) event {
	dir := wsa.NewEPR("inproc://node/FileSystemService").WithProperty(QName, attempt)
	return event{kind: kind, job: job, attempt: attempt, jobEPR: eprOf(attempt), dirEPR: dir}
}

// placedOn is the shell's placement of one attempt.
func placedOn(node, job, attempt string) event {
	return event{kind: evPlaced, job: job, attempt: attempt, node: node}
}

func exited(job, attempt string, code int) event {
	ev := about(evExited, job, attempt)
	ev.exitCode, ev.hasExit = code, true
	return ev
}

// states lists "job=state" in declaration order.
func (h *coreHarness) states() []string {
	out := make([]string, len(h.st.jobs))
	for i := range h.st.jobs {
		out[i] = h.st.jobs[i].spec.Name + "=" + h.st.jobs[i].state
	}
	return out
}

func (h *coreHarness) want(status string, jobs map[string]string) {
	h.t.Helper()
	if h.st.status != status {
		h.t.Fatalf("set status %q, want %q (jobs %v)", h.st.status, status, h.states())
	}
	for name, state := range jobs {
		if got := h.st.jobs[h.st.index[name]].state; got != state {
			h.t.Fatalf("job states %v, want %v", h.states(), jobs)
		}
	}
}

func idle(fx effects) bool {
	return fx.reserved == nil && fx.charge == "" && len(fx.stop)+len(fx.arm)+len(fx.kill)+len(fx.free) == 0 &&
		!fx.persist && fx.publish == "" && !fx.retry && !fx.schedule
}

func oneJob(retry int) *JobSetSpec {
	return &JobSetSpec{Name: "s", Jobs: []JobSpec{{Name: "j", Executable: "local://x.app", Retry: RetryPolicy{Limit: retry}}}}
}

// TestJobSetCoreLifecycleBugs replays, against the core alone, each
// lifecycle bug the scheduler has had: the interleaving that triggered it
// and the state it must end in.
func TestJobSetCoreLifecycleBugs(t *testing.T) {
	cases := []struct {
		name string
		run  func(h *coreHarness)
		spec *JobSetSpec
	}{
		{"watchdog fires after the exit it raced", func(h *coreHarness) {
			a := h.reserve().attempt
			h.do(about(evRunAcked, "j", a))
			if !h.armed[watchKey{0, a}] {
				h.t.Fatal("Run response armed no watchdog")
			}
			h.do(exited("j", a, 0))
			if fx := h.do(event{kind: evTimeout, job: "j", attempt: a, reason: "late"}); !idle(fx) {
				h.t.Fatalf("late watchdog had effects: %+v", fx)
			}
			h.want(SetCompleted, map[string]string{"j": JobCompleted})
		}, oneJob(0)},
		{"exit arrives after the watchdog already failed the job", func(h *coreHarness) {
			a := h.reserve().attempt
			h.do(about(evRunAcked, "j", a))
			fx := h.do(event{kind: evTimeout, job: "j", attempt: a, reason: "no completion"})
			if len(fx.kill) != 1 || fx.kill[0].String() != eprOf(a).String() {
				h.t.Fatalf("timed-out job's own process not killed: %v", fx.kill)
			}
			if fx := h.do(exited("j", a, 0)); !idle(fx) {
				h.t.Fatalf("exit after the verdict had effects: %+v", fx)
			}
			h.want(SetFailed, map[string]string{"j": JobFailed})
		}, oneJob(0)},
		{"cancel after the set went terminal", func(h *coreHarness) {
			a := h.reserve().attempt
			h.do(about(evRunAcked, "j", a))
			h.do(exited("j", a, 0))
			if fx := h.do(event{kind: evCancel, reason: "cancelled by client"}); !idle(fx) {
				h.t.Fatalf("late cancel had effects: %+v", fx)
			}
			h.want(SetCompleted, nil)
			if len(h.publishd) != 1 {
				h.t.Fatalf("terminal publishes %v, want exactly one", h.publishd)
			}
		}, oneJob(0)},
		{"siblings of a failed job left Running in a Failed set", func(h *coreHarness) {
			boom, long := h.reserve().attempt, h.reserve().attempt
			for _, ev := range []event{about(evRunAcked, "boom", boom), about(evStarted, "boom", boom),
				about(evRunAcked, "long", long), about(evStarted, "long", long)} {
				h.do(ev)
			}
			fx := h.do(exited("boom", boom, 9))
			h.want(SetFailed, map[string]string{"boom": JobFailed, "long": JobCancelled})
			killsLong := false
			for _, epr := range fx.kill {
				killsLong = killsLong || epr.String() == eprOf(long).String()
			}
			if !killsLong || fx.publish != SetFailed {
				h.t.Fatalf("doomed sibling not reaped or set not published: %+v", fx)
			}
			if len(h.armed) != 0 {
				h.t.Fatalf("watchdogs left armed in a terminal set: %v", h.armed)
			}
		}, &JobSetSpec{Name: "s", Jobs: []JobSpec{{Name: "boom", Executable: "local://x.app"}, {Name: "long", Executable: "local://x.app"}}}},
		{"exited delivered before started", func(h *coreHarness) {
			a := h.reserve().attempt
			h.do(about(evRunAcked, "j", a))
			h.do(exited("j", a, 0))
			if fx := h.do(about(evStarted, "j", a)); !idle(fx) {
				h.t.Fatalf("started after exited had effects: %+v", fx)
			}
			h.want(SetCompleted, map[string]string{"j": JobCompleted})
		}, oneJob(0)},
		{"late started of attempt N inside attempt N+1's Dispatched window", func(h *coreHarness) {
			n := h.reserve().attempt
			h.do(about(evRunAcked, "j", n))
			if fx := h.do(exited("j", n, 1)); !fx.retry || fx.backoff != 0 {
				h.t.Fatalf("failure with budget left booked no immediate retry: %+v", fx)
			}
			n1 := h.reserve().attempt // Backoff 0: dispatchable at once
			if n1 == n {
				h.t.Fatal("retry reused the attempt identity")
			}
			if fx := h.do(about(evStarted, "j", n)); !idle(fx) {
				h.t.Fatalf("attempt N's started was adopted by attempt N+1: %+v", fx)
			}
			h.want(SetRunning, map[string]string{"j": JobDispatched})
			if fx := h.do(about(evRunAcked, "j", n1)); len(fx.kill) != 0 || !h.armed[watchKey{0, n1}] {
				h.t.Fatalf("attempt N+1's Run response reaped or left unwatched: %+v", fx)
			}
			h.do(about(evStarted, "j", n1))
			h.do(exited("j", n1, 0))
			h.want(SetCompleted, map[string]string{"j": JobCompleted})
			if h.st.jobs[0].retries != 1 {
				h.t.Fatalf("retries consumed = %d, want 1", h.st.jobs[0].retries)
			}
		}, oneJob(1)},
		{"Run response overtaken by its own attempt's exit and retry", func(h *coreHarness) {
			n := h.reserve().attempt
			h.do(exited("j", n, 1)) // exited(N) → started(N) → runAcked(N)
			h.want(SetRunning, map[string]string{"j": JobPending})
			if fx := h.do(about(evStarted, "j", n)); !idle(fx) {
				h.t.Fatalf("stale started had effects: %+v", fx)
			}
			fx := h.do(about(evRunAcked, "j", n))
			if len(fx.kill) != 1 || fx.kill[0].String() != eprOf(n).String() || fx.persist || len(fx.arm) != 0 {
				h.t.Fatalf("overtaken Run response must only reap its process: %+v", fx)
			}
			n1 := h.reserve().attempt
			h.do(about(evRunAcked, "j", n1))
			h.do(exited("j", n1, 0))
			h.want(SetCompleted, map[string]string{"j": JobCompleted})
		}, oneJob(1)},
		{"exit overtakes the Run response: the verdict names the node", func(h *coreHarness) {
			a := h.reserve().attempt
			if fx := h.do(placedOn("node-a", "j", a)); fx.charge != "node-a" || fx.persist {
				h.t.Fatalf("placement of the current attempt: %+v", fx)
			}
			fx := h.do(exited("j", a, 0)) // exited(N) → runAcked(N)
			if len(fx.free) != 1 || fx.free[0] != "node-a" || fx.publish != SetCompleted {
				h.t.Fatalf("completion of a placed attempt: %+v", fx)
			}
			if node := h.st.jobs[0].element().Attr(qNodeAttr); node != "node-a" {
				h.t.Fatalf("the verdict's row names node %q", node)
			}
			if fx := h.do(about(evRunAcked, "j", a)); len(fx.kill) != 0 || len(fx.free) != 0 || !fx.persist {
				h.t.Fatalf("late Run response of the completed attempt: %+v", fx)
			}
			h.want(SetCompleted, map[string]string{"j": JobCompleted})
		}, oneJob(0)},
		{"placement that lost the race to Cancel", func(h *coreHarness) {
			a := h.reserve().attempt
			h.do(event{kind: evCancel, reason: "cancelled by client"})
			if fx := h.do(placedOn("node-a", "j", a)); !idle(fx) || fx.charge != "" {
				h.t.Fatalf("a cancelled attempt was placed: %+v", fx)
			}
			h.want(SetCancelled, map[string]string{"j": JobCancelled})
		}, oneJob(0)},
		{"duplicate exited", func(h *coreHarness) {
			a, b := h.reserve().attempt, ""
			h.do(about(evRunAcked, "first", a))
			h.do(exited("first", a, 0))
			if fx := h.do(exited("first", a, 0)); !idle(fx) {
				h.t.Fatalf("duplicate exit had effects: %+v", fx)
			}
			b = h.reserve().attempt
			if h.reserve() != nil {
				h.t.Fatal("duplicate exit let a job be reserved twice")
			}
			h.do(about(evRunAcked, "second", b))
			h.do(exited("second", b, 0))
			h.want(SetCompleted, nil)
			if len(h.publishd) != 1 {
				h.t.Fatalf("terminal publishes %v, want exactly one", h.publishd)
			}
		}, &JobSetSpec{Name: "s", Jobs: []JobSpec{{Name: "first", Executable: "local://x.app"},
			{Name: "second", Executable: "local://x.app", After: []string{"first"}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			tc.run(newCoreHarness(t, tc.spec))
		})
	}
}

// TestJobSetCoreRestoredAttemptsNeverCollide: two states built for the
// same set (a crash, then Recover) mint different attempt identities, so
// the first incarnation's surviving process cannot speak for the second.
func TestJobSetCoreRestoredAttemptsNeverCollide(t *testing.T) {
	spec := oneJob(0)
	before := newSetState(spec, "aaaa")
	old := before.step(event{kind: evReserve}, time.Unix(0, 0)).reserved.attempt

	h := newCoreHarness(t, spec)
	cur := h.reserve().attempt
	if cur == old {
		t.Fatalf("both incarnations minted %q", cur)
	}
	if fx := h.do(exited("j", old, 0)); !idle(fx) {
		t.Fatalf("the dead incarnation's process completed the new one's job: %+v", fx)
	}
	h.want(SetRunning, map[string]string{"j": JobDispatched})
}

// fuzzSpec decodes a DAG from fuzz bytes: 1-5 jobs, each depending (by
// After edges) on a subset of the earlier ones, with a run-on condition
// and a zero-backoff retry limit of 0-2.
func fuzzSpec(data []byte) (*JobSetSpec, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := 1 + int(data[0])%5
	data = data[1:]
	if len(data) < 2*n {
		return nil, nil
	}
	spec := &JobSetSpec{Name: "fz"}
	for i := 0; i < n; i++ {
		deps, mode := data[2*i], data[2*i+1]
		j := JobSpec{Name: fmt.Sprintf("j%d", i), Executable: "local://x.app", Retry: RetryPolicy{Limit: int(mode>>2) % 3}}
		for d := 0; d < i; d++ {
			if deps&(1<<d) != 0 {
				j.After = append(j.After, fmt.Sprintf("j%d", d))
			}
		}
		switch mode & 3 {
		case 1:
			if len(j.After) > 0 {
				j.RunOn = RunOnFailure
			}
		case 2:
			j.RunOn = RunOnAlways
		}
		spec.Jobs = append(spec.Jobs, j)
	}
	return spec, data[2*n:]
}

// gateMet is I2 stated independently of the core: may this job start?
func gateMet(h *coreHarness, i int) bool {
	j := h.st.jobs[i].spec
	failed := false
	for _, dep := range j.Dependencies() {
		ds := h.st.jobs[h.st.index[dep]].state
		switch j.EffectiveRunOn() {
		case RunOnSuccess:
			if ds != JobCompleted {
				return false
			}
		default:
			if !jobTerminal(ds) {
				return false
			}
			failed = failed || ds == JobFailed
		}
	}
	return j.EffectiveRunOn() != RunOnFailure || failed
}

// checkCore asserts what must hold after every step.
func checkCore(h *coreHarness, wasTerminal string) {
	h.t.Helper()
	st := h.st
	if wasTerminal != "" && st.status != wasTerminal {
		h.t.Fatalf("terminal status changed %s → %s", wasTerminal, st.status)
	}
	live := make(map[watchKey]bool)
	for i := range st.jobs {
		j := &st.jobs[i]
		if j.retries > j.spec.Retry.Limit {
			h.t.Fatalf("job %s consumed %d retries, limit %d", j.spec.Name, j.retries, j.spec.Retry.Limit)
		}
		if TerminalSetStatus(st.status) && !jobTerminal(j.state) {
			h.t.Fatalf("%s set holds %s job %s", st.status, j.state, j.spec.Name)
		}
		if st.status == SetCompleted && j.state == JobFailed {
			h.t.Fatalf("Completed set holds failed job %s", j.spec.Name)
		}
		if jobLive(j.state) {
			if j.attempt == "" {
				h.t.Fatalf("live job %s has no attempt identity", j.spec.Name)
			}
			live[watchKey{i, j.attempt}] = true
		}
	}
	for k := range h.armed {
		if !live[k] {
			h.t.Fatalf("watchdog %v still armed for an attempt that is not live", k)
		}
	}
}

// fuzzCoreSeeds are the committed inputs of FuzzJobSetCore.
var fuzzCoreSeeds = [][]byte{
	// The retry-storm interleaving (one always-failing job, limit 2,
	// Backoff 0): exit before started, the next reservation at once, the
	// old attempt's started and Run response landing in the new one's
	// Dispatched window.
	{0, 0, 2 << 2,
		0, 0, // reserve
		5, 0, // exited(1), current
		0, 0, // reserve
		3, 0x80, // started, stale
		1, 0x80, // runAcked, stale
		1, 0, // runAcked, current
		3, 0, // started, current
		5, 0, // exited(1), current
		0, 0, 5, 0, 3, 0x80, 0, 0, 1, 0, 5, 0},
	{2, 0, 0, 1, 1, 3, 2, 0, 0, 0, 0, 1, 0, 4, 0, 0, 0, 1, 1, 5, 1, 0, 0},
	{4, 0, 4, 1, 0, 1, 9, 7, 2, 15, 1, 0, 0, 0, 0, 1, 0, 1, 1, 6, 0, 8, 1, 7, 0x81, 9, 0, 0, 0},
}

// FuzzJobSetCore drives random DAGs through random interleavings of
// valid, duplicated, stale-attempt and reordered events, checking the
// invariants after every step and that the stream then drains to a
// terminal set.
func FuzzJobSetCore(f *testing.F) {
	for _, seed := range fuzzCoreSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzCore(t, data, newCoreHarness) })
}

// fuzzCore runs one fuzz input against the harness mk builds for its DAG.
func fuzzCore(t *testing.T, data []byte, mk func(testing.TB, *JobSetSpec) *coreHarness) {
	{
		spec, ops := fuzzSpec(data)
		if spec == nil || spec.Validate() != nil {
			t.Skip()
		}
		h := mk(t, spec)
		var last event
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			i := int(arg&0x7f) % len(spec.Jobs)
			name := spec.Jobs[i].Name
			// The attempt the event is about: the job's latest, or with
			// the high bit an earlier (or never minted) one.
			attempt := "n0.never"
			if n := len(h.attempts[i]); n > 0 {
				attempt = h.attempts[i][n-1]
				if arg&0x80 != 0 {
					attempt = h.attempts[i][int(op>>4)%n]
				}
			}
			var ev event
			switch op % 15 {
			case 0:
				ev = event{kind: evReserve}
			case 1:
				ev = about(evRunAcked, name, attempt)
			case 2:
				ev = about(evDirectory, name, attempt)
			case 3:
				ev = about(evStarted, name, attempt)
			case 4:
				ev = exited(name, attempt, 0)
			case 5:
				ev = exited(name, attempt, 1)
			case 6:
				ev = about(evFailed, name, attempt)
				ev.reason = "spawn"
			case 7:
				ev = event{kind: evDispatchFailed, job: name, attempt: attempt, reason: "dispatch"}
			case 8:
				ev = event{kind: evTimeout, job: name, attempt: attempt, reason: "timeout"}
			case 9:
				ev = last // duplicate delivery
			case 10:
				h.now = h.now.Add(time.Second)
				continue
			case 11:
				if arg%8 != 0 {
					continue // keep whole-set verdicts rare
				}
				// Four slots for two verdicts: the committed seeds were saved
				// against this byte → event mapping, so the slots of verdicts
				// that no longer exist repeat the two that do instead of
				// closing up.
				ev = event{kind: [...]eventKind{evCancel, evDestroy, evCancel, evDestroy}[int(arg>>3)%4], reason: "by decree"}
			case 12:
				ev = event{kind: evFailed, job: name, final: true, reason: "cannot run"}
			case 13:
				ev = about(evStarted, "no-such-job", attempt)
			case 14:
				ev = placedOn([...]string{"node-a", "node-b"}[int(arg>>6)&1], name, attempt)
			}
			last = ev
			wasTerminal := ""
			if TerminalSetStatus(h.st.status) {
				wasTerminal = h.st.status
			}
			fx := h.do(ev)
			if fx.reserved != nil && !gateMet(h, fx.reserved.job) {
				t.Fatalf("job %s reserved before its gate was met: %v", spec.Jobs[fx.reserved.job].Name, h.states())
			}
			checkCore(h, wasTerminal)
		}
		// Drain (I1): let every live attempt finish and every backoff
		// lapse; the set must reach a verdict in bounded steps.
		for round := 0; !TerminalSetStatus(h.st.status); round++ {
			if round > 4*len(spec.Jobs)*4 {
				t.Fatalf("set never drained: status %s, jobs %v", h.st.status, h.states())
			}
			h.now = h.now.Add(time.Hour)
			for h.reserve() != nil {
			}
			for i := range h.st.jobs {
				if j := &h.st.jobs[i]; jobLive(j.state) {
					a := j.attempt
					h.do(placedOn("node-a", j.spec.Name, a)) // ignored if it already was
					h.do(about(evRunAcked, j.spec.Name, a))
					h.do(exited(j.spec.Name, a, round%2))
				}
			}
			checkCore(h, "")
		}
		checkCore(h, h.st.status)
		if len(h.armed) != 0 {
			t.Fatalf("watchdogs armed after the verdict: %v", h.armed)
		}
		if len(h.charged) != 0 {
			t.Fatalf("placements charged after the verdict: %v", h.charged)
		}
	}
}
