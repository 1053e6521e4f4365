package scheduler

// The job-set state machine (paper §4.5, Fig. 3 steps 9-10): a job set
// is one value, setState, advanced by one function, step, which does no
// I/O, takes no lock and reads no clock; what a transition needs done in
// the world comes back as effects for the shell in scheduler.go. No other
// file assigns a job state or a set status.
//
// Every dispatch of a job is an attempt with an identity minted at
// reservation, sent to the ES in the Run request and echoed in each
// event of that process. An event or Run response about any attempt but
// the job's current one changes nothing — whatever order the broker
// delivers in, however many incarnations of the job are still alive.

import (
	"fmt"
	"strconv"
	"time"

	"uvacg/internal/wsa"
)

// eventKind names what happened to a job set.
type eventKind int

const (
	evReserve        eventKind = iota // the shell wants the next ready job
	evPlaced                          // the shell picked the attempt's node and is about to send Run
	evRunAcked                        // the ES answered Run: job and directory EPRs
	evDispatchFailed                  // the dispatch never produced a Run response
	evDirectory                       // ES: working directory created
	evStarted                         // ES: process launched
	evExited                          // ES: process finished
	evFailed                          // ES: staging or spawn failed; also the shell's "cannot run" verdicts
	evTimeout                         // the attempt's watchdog fired
	evCancel                          // client Cancel
	evDestroy                         // the job-set resource was destroyed
	evPreempt                         // evicted back into the admission queue
)

// event is one input to step. Job events name a job and the attempt they
// are about; an evFailed with no job fails the whole set, and one marked
// final names a job, not an attempt, and is never retried.
type event struct {
	kind     eventKind
	job      string
	attempt  string
	node     string
	jobEPR   wsa.EndpointReference
	dirEPR   wsa.EndpointReference
	exitCode int
	hasExit  bool
	reason   string
	final    bool
}

// jobState is one job's progress. attempt identifies the live attempt (or
// the one that completed the job), empty when no process of this job may
// be believed; retries is what the document's attempt attribute persists.
type jobState struct {
	spec     *JobSpec
	deps     []int
	retry    RetryPolicy
	state    string
	attempt  string
	retries  int
	node     string
	jobEPR   wsa.EndpointReference
	dirEPR   wsa.EndpointReference
	exitCode int
	retryAt  time.Time
}

// setState is a job set: its status and its jobs in declaration order.
// parked: the set was evicted mid-run, back into the admission queue
// (status Queued), and every later event is dropped.
type setState struct {
	status string
	parked bool
	jobs   []jobState
	index  map[string]int
	nonce  string
	minted int
	seq    int
}

// watchKey identifies one attempt's watchdog.
type watchKey struct {
	job     int
	attempt string
}

// reservation is a job handed to the shell for dispatch: its index, the
// attempt to name in the Run request, the sequence number policies rotate on.
type reservation struct {
	job     int
	attempt string
	seq     int
}

// effects is what a transition asks of the shell: watchdogs stopped and
// armed and placements charged and freed at once, then in fixed order kill,
// persist (the touched jobs, or with status — the set status changed — the
// whole set), requeue, release, publish (+ notified stamp), retry, schedule.
// charge is the host a placement was accepted on, free the hosts of placed
// attempts that ended: each accepted placement is freed exactly once.
type effects struct {
	reserved *reservation
	charge   string
	free     []string
	stop     []watchKey
	arm      []watchKey
	kill     []wsa.EndpointReference
	persist  bool
	status   bool
	touched  []int
	requeue  bool
	release  bool
	publish  string
	detail   string
	retry    bool
	backoff  time.Duration
	schedule bool
}

func (fx *effects) touch(i int) {
	fx.persist = true
	fx.touched = append(fx.touched, i)
}

// jobTerminal reports whether a job state is final.
func jobTerminal(state string) bool {
	switch state {
	case JobCompleted, JobFailed, JobCancelled:
		return true
	}
	return false
}

func jobLive(state string) bool { return state == JobDispatched || state == JobRunning }

// newSetState builds a set with every job Pending. nonce prefixes the
// attempt identities and must differ between any two states built for one
// set: processes of a crashed or evicted incarnation outlive it and
// report to its successor. Dependencies the spec does not define are
// dropped — only a spec that failed validation has them, and its state
// is built only to be failed.
func newSetState(spec *JobSetSpec, status, nonce string, defaultRetry RetryPolicy) *setState {
	st := &setState{
		status: status,
		jobs:   make([]jobState, len(spec.Jobs)),
		index:  make(map[string]int, len(spec.Jobs)),
		nonce:  nonce,
	}
	for i := range spec.Jobs {
		st.index[spec.Jobs[i].Name] = i
	}
	for i := range spec.Jobs {
		j := &spec.Jobs[i]
		js := jobState{spec: j, state: JobPending, retry: j.Retry}
		if js.retry.Limit <= 0 {
			js.retry = defaultRetry
		}
		for _, dep := range j.Dependencies() {
			if d, ok := st.index[dep]; ok {
				js.deps = append(js.deps, d)
			}
		}
		st.jobs[i] = js
	}
	return st
}

// restore folds persisted progress into a fresh state: completed jobs
// keep their verdict and output directory, every job keeps the retries
// it already consumed, everything else runs again.
func (st *setState) restore(v JobSetView) {
	for i := range st.jobs {
		j := &st.jobs[i]
		jv := v.Job(j.spec.Name)
		if jv == nil {
			continue
		}
		j.retries = jv.Attempt
		if jv.Status == JobCompleted {
			j.state, j.dirEPR = JobCompleted, jv.Dir
		}
	}
}

// firstUnfinished names the first job that has not completed, "" if none.
func (st *setState) firstUnfinished() string {
	for i := range st.jobs {
		if st.jobs[i].state != JobCompleted {
			return st.jobs[i].spec.Name
		}
	}
	return ""
}

// step advances the set by one event.
func (st *setState) step(ev event, now time.Time) effects {
	var fx effects
	if st.parked {
		// An evicted set's jobs were killed: a Run response arriving now
		// delivers a process nobody will collect, so reap it.
		if ev.kind == evRunAcked {
			fx.kill = append(fx.kill, ev.jobEPR)
		}
		return fx
	}
	switch ev.kind {
	case evReserve:
		st.reserve(now, &fx)
	case evCancel, evDestroy:
		st.terminate(SetCancelled, ev.reason, &fx)
		if ev.kind == evDestroy { // resource gone: nothing to journal, nobody to tell
			fx.persist, fx.publish = false, ""
		}
	case evPreempt:
		st.park(&fx)
	default:
		if ev.kind == evFailed && ev.job == "" {
			st.terminate(SetFailed, ev.reason, &fx)
			break
		}
		st.jobEvent(ev, now, &fx)
	}
	return fx
}

// reserve marks the first ready job Dispatched and mints its attempt and
// its sequence number — here, under whatever serialises step, so
// concurrent schedulers of one set cannot break round-robin rotation.
// With nothing ready it checks whether the set is finished, which is how
// a restored set whose every job had already settled gets closed.
func (st *setState) reserve(now time.Time, fx *effects) {
	if st.status != SetRunning {
		return
	}
	for i := range st.jobs {
		j := &st.jobs[i]
		if j.state != JobPending || now.Before(j.retryAt) || !st.ready(i) {
			continue
		}
		st.seq++
		st.minted++
		j.state, j.retryAt = JobDispatched, time.Time{}
		j.attempt = st.nonce + "." + strconv.Itoa(st.minted)
		fx.reserved = &reservation{job: i, attempt: j.attempt, seq: st.seq}
		return
	}
	st.settle("", fx)
}

// jobEvent handles everything that is about one job.
func (st *setState) jobEvent(ev event, now time.Time, fx *effects) {
	i, ok := st.index[ev.job]
	if !ok {
		return
	}
	j := &st.jobs[i]
	if ev.final {
		if !jobTerminal(j.state) && st.status == SetRunning {
			st.fail(i, ev.reason, false, now, fx)
		}
		return
	}
	if j.attempt == "" || ev.attempt != j.attempt {
		// History. A Run response that lost the race to a retry or a
		// terminal verdict still delivered a fresh process: reap it.
		if ev.kind == evRunAcked {
			fx.kill = append(fx.kill, ev.jobEPR)
		}
		return
	}
	if !ev.dirEPR.IsZero() {
		j.dirEPR = ev.dirEPR
	}
	if !ev.jobEPR.IsZero() {
		j.jobEPR = ev.jobEPR
	}
	live := jobLive(j.state)
	switch ev.kind {
	case evPlaced:
		// The node is the attempt's from here on — before Run is sent, so
		// no event of the process can be applied ahead of it — and counts
		// against the host until the attempt ends.
		if j.state == JobDispatched && j.node == "" {
			j.node, fx.charge = ev.node, ev.node
		}
	case evRunAcked:
		// The attempt's own started/exited may have overtaken the
		// response; only an attempt still in flight needs a watchdog.
		if live {
			fx.arm = append(fx.arm, watchKey{i, j.attempt})
		}
		fx.touch(i)
	case evStarted:
		if j.state == JobDispatched {
			j.state = JobRunning
			fx.touch(i)
		}
	case evExited:
		if !live {
			return
		}
		if !ev.hasExit || ev.exitCode != 0 {
			j.exitCode = ev.exitCode
			st.fail(i, fmt.Sprintf("exit code %d", ev.exitCode), true, now, fx)
			return
		}
		// The attempt identity stays: it is how a late Run response still
		// gets to record the job and directory EPRs.
		j.state, j.exitCode = JobCompleted, 0
		fx.stop = append(fx.stop, watchKey{i, j.attempt})
		unplace(j, fx)
		fx.touch(i)
		st.settle("", fx)
		fx.schedule = st.status == SetRunning
	case evFailed, evDispatchFailed, evTimeout:
		if live {
			st.fail(i, ev.reason, true, now, fx)
		}
	}
}

// fail is one job's failure — nonzero exit, staging or spawn error,
// dispatch error, watchdog timeout. Each spends one retry, whether or not
// a process ever started: the budget counts attempts — reservations — not
// starts, so a dispatch that reached no node is an attempt like any other
// and a grid with no machines ends in a verdict after Limit backoffs
// instead of spinning. With retry budget left the job goes
// back to Pending behind its backoff; without, it is Failed, run-on-success
// work that can no longer matter is cancelled and killed, failure
// handlers are left to run, and the set settles if nothing is.
func (st *setState) fail(i int, reason string, allowRetry bool, now time.Time, fx *effects) {
	j := &st.jobs[i]
	if allowRetry && j.retries < j.retry.Limit {
		j.retries++
		st.abandon(i, JobPending, fx)
		j.retryAt = now.Add(j.retry.Backoff)
		fx.retry, fx.backoff = true, j.retry.Backoff
		return
	}
	st.abandon(i, JobFailed, fx)
	for k := range st.jobs {
		o := &st.jobs[k]
		if k != i && !jobTerminal(o.state) && o.spec.EffectiveRunOn() == RunOnSuccess {
			st.abandon(k, JobCancelled, fx)
		}
	}
	st.settle(fmt.Sprintf("job %q failed: %s", j.spec.Name, reason), fx)
	fx.schedule = st.status == SetRunning
}

// abandon moves a job to a state in which no process of it is believed
// any more: the attempt identity is dropped (what that process still
// reports is history), its watchdog stopped, and the process — maybe
// alive: a timeout, a doomed sibling — killed when its EPR is known. A
// job going back to Pending also forgets where it ran.
func (st *setState) abandon(i int, to string, fx *effects) {
	j := &st.jobs[i]
	if j.attempt != "" {
		fx.stop = append(fx.stop, watchKey{i, j.attempt})
	}
	if jobLive(j.state) {
		if !j.jobEPR.IsZero() {
			fx.kill = append(fx.kill, j.jobEPR)
		}
		unplace(j, fx)
	}
	j.state, j.attempt, j.retryAt = to, "", time.Time{}
	if to == JobPending {
		j.node, j.exitCode = "", 0
		j.jobEPR, j.dirEPR = wsa.EndpointReference{}, wsa.EndpointReference{}
	}
	fx.touch(i)
}

// unplace gives back the placement of a live job whose attempt ends here.
func unplace(j *jobState, fx *effects) {
	if j.node != "" {
		fx.free = append(fx.free, j.node)
	}
}

// settle finishes a running set once no job can still run: pending jobs
// whose gate became unsatisfiable are cancelled to fixpoint, and with
// every job terminal the set goes Completed when nothing failed, Failed
// otherwise. detail, when given, is the failure that ended it.
func (st *setState) settle(detail string, fx *effects) {
	if st.status != SetRunning {
		return
	}
	for again := true; again; {
		again = false
		for i := range st.jobs {
			if st.jobs[i].state == JobPending && st.impossible(i) {
				st.abandon(i, JobCancelled, fx)
				again = true
			}
		}
	}
	failed := -1
	for i := range st.jobs {
		switch st.jobs[i].state {
		case JobCompleted, JobCancelled:
		case JobFailed:
			if failed < 0 {
				failed = i
			}
		default:
			return // pending (maybe behind a backoff), dispatched or running
		}
	}
	st.status = SetCompleted
	if failed >= 0 {
		st.status = SetFailed
		if detail == "" {
			detail = fmt.Sprintf("job %q failed", st.jobs[failed].spec.Name)
		}
	}
	fx.persist, fx.status, fx.release = true, true, true
	fx.publish, fx.detail = st.status, detail
}

// terminate ends a running set by decree — Cancel, destroy, or a set the
// shell found it cannot run at all: every unfinished job is Cancelled
// and killed. A set that already has a verdict keeps it.
func (st *setState) terminate(status, detail string, fx *effects) {
	if st.status != SetRunning {
		return
	}
	st.status = status
	for i := range st.jobs {
		if !jobTerminal(st.jobs[i].state) {
			st.abandon(i, JobCancelled, fx)
		}
	}
	fx.persist, fx.status, fx.release = true, true, true
	fx.publish, fx.detail = status, detail
}

// park evicts a running set back into the admission queue: it goes back
// to Queued, unfinished jobs are killed and reset to Pending keeping their
// consumed retries, completed work stands, and that state is journaled so
// the set survives a crash like any parked submission. Timers stop and the
// running slot comes back.
func (st *setState) park(fx *effects) {
	if st.status != SetRunning {
		return
	}
	st.parked = true
	st.status = SetQueued
	for i := range st.jobs {
		if st.jobs[i].state != JobCompleted {
			st.abandon(i, JobPending, fx)
		}
	}
	fx.persist, fx.status, fx.requeue, fx.release = true, true, true, true
	fx.publish, fx.detail = SetPreempted, "preempted by an interactive arrival"
}

// ready evaluates a pending job's run-on gate against its dependencies.
func (st *setState) ready(i int) bool {
	j := &st.jobs[i]
	runOn := j.spec.EffectiveRunOn()
	anyFailed := false
	for _, d := range j.deps {
		ds := st.jobs[d].state
		if runOn == RunOnSuccess {
			if ds != JobCompleted {
				return false
			}
			continue
		}
		// RunOnFailure, RunOnAlways: dependencies must merely be settled.
		if !jobTerminal(ds) {
			return false
		}
		if ds == JobFailed {
			anyFailed = true
		}
	}
	return runOn != RunOnFailure || anyFailed
}

// impossible reports whether a pending job's run-on gate can no longer
// be met, whatever happens to the jobs still in flight.
func (st *setState) impossible(i int) bool {
	j := &st.jobs[i]
	switch j.spec.EffectiveRunOn() {
	case RunOnFailure:
		// Doomed only once every dependency settled without a failure.
		for _, d := range j.deps {
			if ds := st.jobs[d].state; !jobTerminal(ds) || ds == JobFailed {
				return false
			}
		}
		return true
	case RunOnAlways:
		return false // dependencies always settle eventually
	default: // RunOnSuccess
		for _, d := range j.deps {
			if ds := st.jobs[d].state; jobTerminal(ds) && ds != JobCompleted {
				return true
			}
		}
		return false
	}
}
