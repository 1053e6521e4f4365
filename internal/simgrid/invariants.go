package simgrid

import (
	"bytes"
	"fmt"
	"maps"

	"uvacg/internal/services/scheduler"
)

// CheckInvariants audits a quiesced cluster against the safety and
// liveness properties every chaos run must uphold, returning one message
// per violation (empty means the run passed).
//
//	I1  Every job set the scheduler created (every persisted document
//	    that got as far as a topic) is terminal: completed, failed or
//	    cancelled. Nothing hangs — not across crashes, partitions or
//	    lost events.
//	I2  Causal ordering: a success-gated job observed to start had every
//	    dependency observed to exit successfully. The scheduler may
//	    never dispatch a job before its predecessors' outputs exist.
//	    Cleanup (run-on failure) and finalizer (run-on always) jobs are
//	    exempt: their gates open on non-success outcomes by design.
//	I3  No acked submission is lost: the topic returned by an
//	    acknowledged Submit maps to a persisted job-set document, even
//	    after the master crashed and recovered from its WAL.
//	I4  At-least-once terminal notification: every acked submission's
//	    subscribed listener observed a terminal job-set event, across
//	    broker restarts (subscriptions are durable) and scheduler
//	    crash/republish.
//	I7  Byte identity: every file any FSS installed from the scenario's
//	    file server is byte for byte the submitted content, whichever
//	    route (local link, wire fetch) it took.
//	I8  Retry/cleanup conservation: no persisted attempt counter ever
//	    exceeds its job's retry budget (a crash between attempts must
//	    not grant a fresh one); a terminal set's document holds only
//	    terminal job states; a Completed set holds no Failed job; and a
//	    run-on-failure handler whose gate was met (every dependency
//	    terminal, at least one Failed) actually ran.
//	I9  No stuck work: on a live master, every unfinished job of a
//	    running set has something obliged to move it on — an armed
//	    watchdog, a retry timer or an unmet gate it is waiting behind, or
//	    a busy machine that will still report. A job with none of these
//	    is the signature of an event credited to the wrong attempt: it
//	    will sit there forever, and I1 can only say so after the whole
//	    quiescence deadline. And no stuck charge: the master's placement
//	    ledger charges each machine exactly the live placed attempts its
//	    books show — at quiescence, none — or placement is skewed for good.
//
// I5 and I6 are not in use: CHANGES.md, ROADMAP.md and the messages below
// cite these numbers, so the gaps retired invariants left are not closed
// up.
func CheckInvariants(c *Cluster, sc *Scenario) []string {
	var violations []string
	docs := c.JobSetDocs()
	events := c.Observer.Events()
	acked := c.Acked()

	// I1: all topic-bearing documents terminal. Documents without a
	// topic are half-born submissions the client never got acked (the
	// crash window between CreateResource and the topic write); they
	// carry no obligation.
	for _, v := range docs {
		if v.Topic != "" && !scheduler.TerminalSetStatus(v.Status) {
			violations = append(violations,
				fmt.Sprintf("I1: set %s (topic %s) not terminal: %q", v.Name, v.Topic, v.Status))
		}
	}

	// I2: for every observed start, each dependency has an observed
	// successful exit. Checked existence-wise, not order-wise: broker
	// fan-out does not promise cross-publish ordering at the listener,
	// but the exempt listener route makes delivery itself reliable, so
	// a started job whose dependency never reports exit 0 means the
	// scheduler dispatched early.
	specByName := make(map[string]*scheduler.JobSetSpec, len(sc.Sets))
	for _, set := range sc.Sets {
		specByName[set.Name] = set
	}
	topicName := make(map[string]string, len(docs)) // topic → set name
	for _, v := range docs {
		if v.Topic != "" {
			topicName[v.Topic] = v.Name
		}
	}
	type setJob struct{ set, job string }
	exitOK := make(map[setJob]bool)
	for _, ev := range events {
		if ev.Kind == "exited" && ev.HasExit && ev.ExitCode == 0 {
			exitOK[setJob{ev.Set, ev.Job}] = true
		}
	}
	for _, ev := range events {
		if ev.Kind != "started" {
			continue
		}
		spec := specByName[topicName[ev.Set]]
		if spec == nil {
			continue // a set this scenario did not define (foreign topic)
		}
		for i := range spec.Jobs {
			if spec.Jobs[i].Name != ev.Job {
				continue
			}
			if spec.Jobs[i].EffectiveRunOn() != scheduler.RunOnSuccess {
				continue // failure/always gates open without a clean exit
			}
			for _, dep := range spec.Jobs[i].Dependencies() {
				if !exitOK[setJob{ev.Set, dep}] {
					violations = append(violations,
						fmt.Sprintf("I2: job %s/%s started but dependency %s has no successful exit", ev.Set, ev.Job, dep))
				}
			}
		}
	}

	// I8: retry/cleanup conservation, read from the persisted documents
	// (the ground truth a recovered master resumes from). Checked only
	// on terminal sets — a mid-flight snapshot could legitimately hold
	// live states.
	for _, v := range docs {
		spec := specByName[v.Name]
		if spec == nil || !scheduler.TerminalSetStatus(v.Status) {
			continue
		}
		jobSpec := make(map[string]*scheduler.JobSpec, len(spec.Jobs))
		for i := range spec.Jobs {
			jobSpec[spec.Jobs[i].Name] = &spec.Jobs[i]
		}
		for _, jv := range v.Jobs {
			js, ok := jobSpec[jv.Name]
			if !ok {
				continue
			}
			if limit := js.Retry.Limit; jv.Attempt > limit {
				violations = append(violations,
					fmt.Sprintf("I8: job %s/%s consumed %d retry attempts, budget is %d", v.Name, jv.Name, jv.Attempt, limit))
			}
			switch jv.Status {
			case scheduler.JobCompleted, scheduler.JobFailed, scheduler.JobCancelled:
			default:
				violations = append(violations,
					fmt.Sprintf("I8: terminal set %s (%s) persisted live job state %s=%q", v.Name, v.Status, jv.Name, jv.Status))
			}
			if v.Status == scheduler.SetCompleted && jv.Status == scheduler.JobFailed {
				violations = append(violations,
					fmt.Sprintf("I8: set %s Completed with failed job %s", v.Name, jv.Name))
			}
		}
		// A failure handler whose gate was met must have run. The gate is
		// judged on the final document: every dependency terminal with at
		// least one Failed. (Cancelled dependencies alone never open it.)
		// A client-cancelled set is exempt — cancellation outranks gates.
		if v.Status == scheduler.SetCancelled {
			continue
		}
		for i := range spec.Jobs {
			js := &spec.Jobs[i]
			if js.EffectiveRunOn() != scheduler.RunOnFailure {
				continue
			}
			gateMet, sawFail := true, false
			for _, dep := range js.Dependencies() {
				dv := v.Job(dep)
				if dv == nil {
					gateMet = false
					break
				}
				switch dv.Status {
				case scheduler.JobFailed:
					sawFail = true
				case scheduler.JobCompleted, scheduler.JobCancelled:
				default:
					gateMet = false
				}
				if !gateMet {
					break
				}
			}
			if !gateMet || !sawFail {
				continue
			}
			jv := v.Job(js.Name)
			if jv == nil || (jv.Status != scheduler.JobCompleted && jv.Status != scheduler.JobFailed) {
				got := "<absent>"
				if jv != nil {
					got = jv.Status
				}
				violations = append(violations,
					fmt.Sprintf("I8: cleanup job %s/%s gate was met but it never ran (state %s)", v.Name, js.Name, got))
			}
		}
	}

	// I9: stuck work, read from the live scheduler's own books. A job
	// that is dispatchable, or whose Run is in flight, is about to move —
	// but this runs at quiescence, long after "about to".
	live := c.liveScheduler()
	if live != nil {
		placed := make(map[string]int)
		for _, j := range live.InFlight() {
			if !j.Watchdog && !j.Waiting && !c.busy(j.Node) {
				violations = append(violations,
					fmt.Sprintf("I9: %s: job %s/%s is %s on %q with no watchdog, no retry timer and no live process",
						MasterHost, j.Topic, j.Job, j.State, j.Node))
			}
			if j.Node != "" && (j.State == scheduler.JobDispatched || j.State == scheduler.JobRunning) {
				placed[j.Node]++
			}
		}
		if charged := live.Placed(); !maps.Equal(charged, placed) {
			violations = append(violations,
				fmt.Sprintf("I9: %s: placement ledger charges %v, live placed attempts are %v", MasterHost, charged, placed))
		}
	}

	// I3: every acked topic is backed by a persisted document.
	for _, ack := range acked {
		if _, ok := topicName[ack.Topic]; !ok {
			violations = append(violations,
				fmt.Sprintf("I3: acked submission %s (topic %s) has no persisted job-set document", ack.Name, ack.Topic))
		}
	}

	// I4: every acked submission saw a terminal event on its topic.
	terminal := c.Observer.TerminalSets()
	for _, ack := range acked {
		if !terminal[ack.Topic] {
			violations = append(violations,
				fmt.Sprintf("I4: acked submission %s (topic %s) never delivered a terminal notification", ack.Name, ack.Topic))
		}
	}

	// I7: byte identity. A stage record names the endpoint and remote name
	// the file was staged from and holds the Content the FSS installed.
	// Every record tracing back to the scenario's file server must hold
	// exactly the submitted bytes.
	files := c.Observer.FilesEPR().Address
	for _, rec := range c.StageRecords() {
		want, ok := sc.Apps[rec.File.RemoteName]
		if !ok || rec.File.Source.Address != files {
			continue // a file this scenario did not publish
		}
		if got := rec.Content.Bytes(); !bytes.Equal(got, want) {
			violations = append(violations,
				fmt.Sprintf("I7: %s staged %s (app %s) as %d bytes that differ from the %d submitted (route %s)",
					rec.Host, rec.File.LocalName, rec.File.RemoteName, len(got), len(want), rec.Route))
		}
	}
	return violations
}
