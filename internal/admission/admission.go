// Package admission is the grid's front door: a durable, multi-tenant
// submission queue that sits between Submit and the scheduler's
// dispatch engine. The paper's F3 flow hands every Submit straight to
// the Scheduler Service; under heavy traffic that collapses. Here each
// accepted submission is journaled (by the caller, through the same
// WAL-backed resource store that holds the job-set document) before the
// ack is sent, then parked in a per-tenant queue. A single dequeue loop
// drains the queues with weighted fair sharing — deficit round-robin
// across tenants, which for unit-cost job sets reduces to weighted
// round-robin — and strict priority classes within each tenant
// (interactive before batch before scavenger). Per-tenant quotas bound
// both queued and running sets, and when a bound is hit Submit sheds
// with a typed QueueFullFault carrying a Retry-After hint instead of
// letting the backlog grow without limit.
//
// The queue itself holds no persistent state: the job-set resource
// document (status "Queued", stamped with tenant, class and admission
// sequence) is the journal, and recovery rebuilds the in-memory queues
// by replaying those documents through Requeue in sequence order.
package admission

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"uvacg/internal/pipeline"
)

// Priority classes, ordered. An empty class means ClassBatch.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
	ClassScavenger   = "scavenger"
)

const numClasses = 3

// classRank maps a class to its strict priority (lower drains first).
// ok is false for unknown classes.
func classRank(class string) (int, bool) {
	switch class {
	case ClassInteractive:
		return 0, true
	case ClassBatch, "":
		return 1, true
	case ClassScavenger:
		return 2, true
	}
	return 0, false
}

// ValidClass reports whether class names a known priority class.
func ValidClass(class string) bool {
	_, ok := classRank(class)
	return ok
}

// NormalizeClass canonicalizes an empty class to ClassBatch.
func NormalizeClass(class string) string {
	if class == "" {
		return ClassBatch
	}
	return class
}

// Entry is one queued job set. ID, Name and Topic identify the parked
// WSRF resource; Tenant, Class and Seq are the admission coordinates
// persisted on its document so a restarted master can rebuild the
// queue.
type Entry struct {
	ID       string
	Name     string
	Topic    string
	Tenant   string
	Class    string
	Seq      uint64
	Enqueued time.Time
}

// Metrics path and actions the queue records under when Config.Metrics
// is set, mirroring the "/wal" convention: one pseudo-path per
// subsystem, one action per operation.
const (
	MetricsPath   = "/admission"
	ActionEnqueue = "urn:uvacg:admission/Enqueue"
	ActionDequeue = "urn:uvacg:admission/Dequeue"
	ActionShed    = "urn:uvacg:admission/Shed"
)

// EventKind tags an Event.
type EventKind int

// Queue event kinds, in lifecycle order.
const (
	EventEnqueue EventKind = iota
	EventDequeue
	EventShed
	EventRemove
)

// Event is one queue transition, delivered synchronously (outside the
// queue lock) to Config.Observer. The simulator's I6 invariant is
// checked over this ledger.
type Event struct {
	Kind   EventKind
	Tenant string
	Class  string
	Name   string
	Seq    uint64
	// Depth is the global queued count after the event.
	Depth int
}

// Config tunes a Queue. The zero value admits everything, serves
// tenants round-robin with equal weight, and hints a 1s Retry-After on
// shed (unreachable with no bounds).
type Config struct {
	// MaxQueued bounds the total parked sets across all tenants
	// (0 = unlimited).
	MaxQueued int
	// TenantQueued bounds each tenant's parked sets (0 = unlimited).
	TenantQueued int
	// TenantRunning bounds each tenant's concurrently dispatched sets
	// (0 = unlimited). A tenant at its cap keeps its backlog parked;
	// other tenants drain past it.
	TenantRunning int
	// Weights sets per-tenant fair-share weights; tenants not listed
	// get DefaultWeight. Weights below 1 are raised to 1.
	Weights map[string]int
	// DefaultWeight is the weight for unlisted tenants (default 1).
	DefaultWeight int
	// AnonymousTenant is the bucket for unauthenticated submissions
	// (default "anonymous").
	AnonymousTenant string
	// RetryAfter is the backoff hint attached to QueueFullFault
	// (default 1s).
	RetryAfter time.Duration
	// Metrics, when set, records enqueue ack latency, queue wait and
	// sheds under MetricsPath.
	Metrics *pipeline.Metrics
	// Observer, when set, receives every queue event.
	Observer func(Event)
}

type tenantQueue struct {
	name    string
	weight  int
	classes [numClasses][]*Entry
	queued  int
	// reserved counts Reserve slots not yet committed or aborted; they
	// hold quota so a burst of concurrent Submits cannot overshoot.
	reserved int
	running  int
	// burst is the tenant's remaining deficit while the round-robin
	// pointer rests on it (unit cost, so deficit == dequeues left).
	burst    int
	active   bool
	shed     uint64
	enqueues uint64
	dequeues uint64
}

func (t *tenantQueue) head() (*Entry, int) {
	for r := 0; r < numClasses; r++ {
		if len(t.classes[r]) > 0 {
			return t.classes[r][0], r
		}
	}
	return nil, -1
}

// Queue is the admission queue. All methods are safe for concurrent
// use; Next blocks until an entry is eligible or ctx ends.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	seq     uint64
	tenants map[string]*tenantQueue
	// active is the DRR ring: tenants with parked work, in arrival
	// order; rr is the pointer. Drained tenants are unlinked lazily.
	active   []*tenantQueue
	rr       int
	depth    int
	reserved int
	shed     uint64
	enqueues uint64
	dequeues uint64
	// wake is closed and replaced whenever an entry may have become
	// eligible; Next waits on the channel it saw under the lock.
	wake chan struct{}
}

// New builds a queue.
func New(cfg Config) *Queue {
	if cfg.DefaultWeight < 1 {
		cfg.DefaultWeight = 1
	}
	if cfg.AnonymousTenant == "" {
		cfg.AnonymousTenant = "anonymous"
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &Queue{
		cfg:     cfg,
		tenants: make(map[string]*tenantQueue),
		wake:    make(chan struct{}),
	}
}

// TenantOf maps an authenticated principal name to its tenant bucket;
// the empty principal falls back to the configured anonymous tenant.
func (q *Queue) TenantOf(principal string) string {
	if principal == "" {
		return q.cfg.AnonymousTenant
	}
	return principal
}

func (q *Queue) tenant(name string) *tenantQueue {
	t, ok := q.tenants[name]
	if !ok {
		w := q.cfg.DefaultWeight
		if cw, ok := q.cfg.Weights[name]; ok {
			w = cw
		}
		if w < 1 {
			w = 1
		}
		t = &tenantQueue{name: name, weight: w}
		q.tenants[name] = t
	}
	return t
}

func (q *Queue) signal() {
	close(q.wake)
	q.wake = make(chan struct{})
}

func (q *Queue) link(t *tenantQueue) {
	if !t.active {
		t.active = true
		q.active = append(q.active, t)
	}
}

// Reservation holds an admitted-but-not-yet-journaled slot: quota is
// charged at Reserve so concurrent Submits cannot overshoot the bounds
// while their journal writes are in flight. Exactly one of Commit or
// Abort must be called.
type Reservation struct {
	q      *Queue
	t      *tenantQueue
	Seq    uint64
	Tenant string
	Class  string
	start  time.Time
	done   bool
}

// Reserve checks the depth bound and the tenant's queued quota, and on
// success charges one slot and allocates the admission sequence number.
// On a full queue it returns a QueueFullFault (with Retry-After cause)
// and records the shed.
func (q *Queue) Reserve(tenant, class string) (*Reservation, error) {
	if !ValidClass(class) {
		return nil, fmt.Errorf("admission: unknown priority class %q", class)
	}
	class = NormalizeClass(class)
	start := time.Now()
	q.mu.Lock()
	t := q.tenant(tenant)
	var reason string
	switch {
	case q.cfg.MaxQueued > 0 && q.depth+q.reserved >= q.cfg.MaxQueued:
		reason = fmt.Sprintf("queue depth bound %d reached", q.cfg.MaxQueued)
	case q.cfg.TenantQueued > 0 && t.queued+t.reserved >= q.cfg.TenantQueued:
		reason = fmt.Sprintf("tenant %s queued quota %d reached", tenant, q.cfg.TenantQueued)
	}
	if reason != "" {
		t.shed++
		q.shed++
		depth := q.depth
		q.mu.Unlock()
		if q.cfg.Metrics != nil {
			q.cfg.Metrics.Record(pipeline.Key{Path: MetricsPath, Action: ActionShed}, time.Since(start), true)
		}
		if q.cfg.Observer != nil {
			q.cfg.Observer(Event{Kind: EventShed, Tenant: tenant, Class: class, Depth: depth})
		}
		return nil, queueFullFault(reason, q.cfg.RetryAfter)
	}
	t.reserved++
	q.reserved++
	q.seq++
	seq := q.seq
	q.mu.Unlock()
	return &Reservation{q: q, t: t, Seq: seq, Tenant: tenant, Class: class, start: start}, nil
}

// Commit parks the entry (its journal write has succeeded) and returns
// its 1-based position within the tenant's backlog. The entry's
// Tenant, Class and Seq are taken from the reservation.
func (r *Reservation) Commit(e Entry) (Entry, int) {
	q := r.q
	e.Tenant, e.Class, e.Seq = r.Tenant, r.Class, r.Seq
	if e.Enqueued.IsZero() {
		e.Enqueued = time.Now()
	}
	rank, _ := classRank(e.Class)
	q.mu.Lock()
	if r.done {
		q.mu.Unlock()
		panic("admission: reservation already settled")
	}
	r.done = true
	r.t.reserved--
	q.reserved--
	ec := &e
	r.t.classes[rank] = append(r.t.classes[rank], ec)
	r.t.queued++
	r.t.enqueues++
	q.depth++
	q.enqueues++
	q.link(r.t)
	pos := 0
	for rk := 0; rk <= rank; rk++ {
		pos += len(r.t.classes[rk])
	}
	depth := q.depth
	q.signal()
	q.mu.Unlock()
	if q.cfg.Metrics != nil {
		q.cfg.Metrics.Record(pipeline.Key{Path: MetricsPath, Action: ActionEnqueue}, time.Since(r.start), false)
	}
	if q.cfg.Observer != nil {
		q.cfg.Observer(Event{Kind: EventEnqueue, Tenant: e.Tenant, Class: e.Class, Name: e.Name, Seq: e.Seq, Depth: depth})
	}
	return e, pos
}

// Abort releases a reservation whose journal write failed.
func (r *Reservation) Abort() {
	q := r.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if r.done {
		panic("admission: reservation already settled")
	}
	r.done = true
	r.t.reserved--
	q.reserved--
}

// Requeue re-parks a recovered or retried entry, bypassing quotas (it
// was already acked). Entries are kept in sequence order within their
// class so replaying a journal in any order rebuilds the same queue.
func (q *Queue) Requeue(e Entry) {
	e.Class = NormalizeClass(e.Class)
	rank, ok := classRank(e.Class)
	if !ok {
		rank = 1
	}
	if e.Enqueued.IsZero() {
		e.Enqueued = time.Now()
	}
	q.mu.Lock()
	if e.Seq > q.seq {
		q.seq = e.Seq
	}
	t := q.tenant(e.Tenant)
	ec := &e
	cls := t.classes[rank]
	at := sort.Search(len(cls), func(i int) bool { return cls[i].Seq > e.Seq })
	cls = append(cls, nil)
	copy(cls[at+1:], cls[at:])
	cls[at] = ec
	t.classes[rank] = cls
	t.queued++
	t.enqueues++
	q.depth++
	q.enqueues++
	q.link(t)
	depth := q.depth
	q.signal()
	q.mu.Unlock()
	if q.cfg.Observer != nil {
		q.cfg.Observer(Event{Kind: EventEnqueue, Tenant: e.Tenant, Class: e.Class, Name: e.Name, Seq: e.Seq, Depth: depth})
	}
}

// eligible reports whether t may dispatch another set right now.
func (q *Queue) eligible(t *tenantQueue) bool {
	if t.queued == 0 {
		return false
	}
	return q.cfg.TenantRunning <= 0 || t.running < q.cfg.TenantRunning
}

// pick runs one deficit-round-robin step under the lock. Unit cost per
// set means the pointer grants each tenant up to `weight` consecutive
// dequeues per visit, then moves on; tenants at their running cap are
// skipped without losing their turn, and drained tenants are unlinked.
func (q *Queue) pick() (Entry, bool) {
	for scanned := 0; scanned < len(q.active); {
		if q.rr >= len(q.active) {
			q.rr = 0
		}
		t := q.active[q.rr]
		if t.queued == 0 {
			t.active = false
			t.burst = 0
			q.active = append(q.active[:q.rr], q.active[q.rr+1:]...)
			continue
		}
		if !q.eligible(t) {
			t.burst = 0
			q.rr++
			scanned++
			continue
		}
		if t.burst <= 0 {
			t.burst = t.weight
		}
		e, rank := t.head()
		t.classes[rank] = t.classes[rank][1:]
		t.queued--
		t.running++
		t.burst--
		q.depth--
		q.dequeues++
		t.dequeues++
		if t.burst == 0 || t.queued == 0 {
			q.rr++
		}
		return *e, true
	}
	return Entry{}, false
}

// Next blocks until an entry is eligible, dequeues it fair-share, and
// charges the tenant's running count (released by Done).
func (q *Queue) Next(ctx context.Context) (Entry, error) {
	for {
		q.mu.Lock()
		e, ok := q.pick()
		depth := q.depth
		wake := q.wake
		q.mu.Unlock()
		if ok {
			if q.cfg.Metrics != nil {
				q.cfg.Metrics.Record(pipeline.Key{Path: MetricsPath, Action: ActionDequeue}, time.Since(e.Enqueued), false)
			}
			if q.cfg.Observer != nil {
				q.cfg.Observer(Event{Kind: EventDequeue, Tenant: e.Tenant, Class: e.Class, Name: e.Name, Seq: e.Seq, Depth: depth})
			}
			return e, nil
		}
		select {
		case <-ctx.Done():
			return Entry{}, ctx.Err()
		case <-wake:
		}
	}
}

// AtRunningCap reports whether the tenant's running quota is exhausted
// — the signal the scheduler's preemption hook keys on. Always false
// when no running bound is configured.
func (q *Queue) AtRunningCap(tenant string) bool {
	if q.cfg.TenantRunning <= 0 {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tenant]
	return ok && t.running >= q.cfg.TenantRunning
}

// Done releases one running slot for the tenant (terminal set, cancel,
// eviction) and wakes the dequeue loop.
func (q *Queue) Done(tenant string) {
	q.mu.Lock()
	t := q.tenant(tenant)
	if t.running > 0 {
		t.running--
	}
	q.signal()
	q.mu.Unlock()
}

// AdoptRunning charges a running slot without a dequeue — recovery uses
// it so sets already dispatched before a crash count toward the
// tenant's running cap.
func (q *Queue) AdoptRunning(tenant string) {
	q.mu.Lock()
	q.tenant(tenant).running++
	q.mu.Unlock()
}

// Remove unparks a queued entry (cancelled or destroyed while waiting).
// It reports whether the entry was still queued.
func (q *Queue) Remove(tenant string, seq uint64) bool {
	q.mu.Lock()
	t, ok := q.tenants[tenant]
	if !ok {
		q.mu.Unlock()
		return false
	}
	for rank := range t.classes {
		for i, e := range t.classes[rank] {
			if e.Seq == seq {
				t.classes[rank] = append(t.classes[rank][:i], t.classes[rank][i+1:]...)
				t.queued--
				q.depth--
				depth := q.depth
				name, class := e.Name, e.Class
				q.mu.Unlock()
				if q.cfg.Observer != nil {
					q.cfg.Observer(Event{Kind: EventRemove, Tenant: tenant, Class: class, Name: name, Seq: seq, Depth: depth})
				}
				return true
			}
		}
	}
	q.mu.Unlock()
	return false
}

// Position returns the 1-based tenant-local position of a queued entry
// (entries of the same or higher priority class ahead of it, plus one),
// or 0 when it is no longer queued.
func (q *Queue) Position(tenant string, seq uint64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tenants[tenant]
	if !ok {
		return 0
	}
	pos := 0
	for rank := range t.classes {
		for _, e := range t.classes[rank] {
			pos++
			if e.Seq == seq {
				return pos
			}
		}
	}
	return 0
}

// TenantStats is one tenant's queue counters.
type TenantStats struct {
	Tenant   string
	Weight   int
	Queued   int
	Running  int
	Shed     uint64
	Enqueues uint64
	Dequeues uint64
}

// QueueStats is a point-in-time snapshot of the whole queue.
type QueueStats struct {
	Depth    int
	Reserved int
	Shed     uint64
	Enqueues uint64
	Dequeues uint64
	Tenants  []TenantStats
}

// Stats snapshots the queue, tenants sorted by name.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		Depth:    q.depth,
		Reserved: q.reserved,
		Shed:     q.shed,
		Enqueues: q.enqueues,
		Dequeues: q.dequeues,
	}
	for _, t := range q.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:   t.name,
			Weight:   t.weight,
			Queued:   t.queued,
			Running:  t.running,
			Shed:     t.shed,
			Enqueues: t.enqueues,
			Dequeues: t.dequeues,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// Dump writes a human-readable snapshot, one tenant per line — the
// admission half of the daemons' metrics dump, next to the /wal table.
func (q *Queue) Dump(w io.Writer) {
	st := q.Stats()
	fmt.Fprintf(w, "admission: depth=%d reserved=%d enqueues=%d dequeues=%d shed=%d\n",
		st.Depth, st.Reserved, st.Enqueues, st.Dequeues, st.Shed)
	for _, t := range st.Tenants {
		fmt.Fprintf(w, "  tenant %-16s weight=%d queued=%d running=%d enq=%d deq=%d shed=%d\n",
			t.Tenant, t.Weight, t.Queued, t.Running, t.Enqueues, t.Dequeues, t.Shed)
	}
}
