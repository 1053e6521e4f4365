package scheduler

import (
	"context"
	"maps"
	"strings"
	"sync"

	"uvacg/internal/admission"
	"uvacg/internal/pipeline"
	"uvacg/internal/wssec"
)

// topicPrefix is the pure function between a job set's resource id and its
// topic: "The Scheduler service then generates a unique topic name for
// events related to this job set."
const topicPrefix = "jobset-"

// registry is what a master remembers of its job sets, keyed once by
// resource id. A set is in it at most once and as exactly one thing:
// parked — acked, waiting in the admission queue — or live, a run. Its
// methods are the only code that adds, moves or removes a set, and none of
// them calls out: subscriptions, journal writes and admission-queue calls
// belong to takeOn, letGo and their callers, outside the lock.
type registry struct {
	mu   sync.RWMutex
	sets map[string]held
}

// held is one entry: a live run or — run nil — a parked submission, its
// admission-queue entry beside the submitting principal's credentials,
// which are deliberately never persisted.
type held struct {
	run   *run
	entry admission.Entry
	creds wssec.Credentials
}

func (h held) parked() bool { return h.run == nil && h.entry.ID != "" }

// park adds a parked submission unless the set is already here, in either
// form: overlapping sweeps and retried re-parks are idempotent.
func (g *registry) park(e admission.Entry, creds wssec.Credentials) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.sets[e.ID]; ok {
		return false
	}
	g.sets[e.ID] = held{entry: e, creds: creds}
	return true
}

// makeLive is the only way a run becomes visible: in place of the set's
// parked entry if there is one, and not at all when a run of the set is
// live already — a concurrent sweep or activation won.
func (g *registry) makeLive(r *run) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sets[r.id].run != nil {
		return false
	}
	g.sets[r.id] = held{run: r}
	return true
}

// remove forgets a set and returns what was held for it.
func (g *registry) remove(id string) held {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.sets[id]
	delete(g.sets, id)
	return h
}

func (g *registry) get(id string) held {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.sets[id]
}

// live returns the run publishing on topic, nil if this master has none.
func (g *registry) live(topic string) *run {
	id, ok := strings.CutPrefix(topic, topicPrefix)
	if !ok {
		return nil
	}
	return g.get(id).run
}

// all is a snapshot of the entries by id, for walks that take a run's own
// lock on the way.
func (g *registry) all() map[string]held {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return maps.Clone(g.sets)
}

// way is how a run reaches takeOn. The three differ in what they do before
// (create the document, or load it) and on failure, which stays with the
// caller, and in the three lines of takeOn that name them.
type way int

const (
	submitted way = iota // a new set: its document says Running already
	activated            // off the admission queue: Queued, its tenant's slot charged by Next
	recovered            // a restart found its document Running
)

// takeOn is the one way in: it turns a new or restored run into a live one
// (Fig. 3 steps 1-2) — subscribe the SS and the client's listener to the
// set's topic, poll the catalog, make the run visible and start
// dispatching. live is false when nothing was
// started: on an error, which the caller undoes or retries; when a run of
// this set was live already; and when the set cannot be run (restoreRun
// says why) and was taken on, like any set that ends here, only to be
// failed.
func (s *Service) takeOn(ctx context.Context, r *run, via way) (live bool, err error) {
	// The set outlives the request, pump turn or sweep that brought it.
	ctx = context.WithoutCancel(ctx)
	r.flow, _ = pipeline.RequestIDFrom(ctx)
	// "subscribe both itself and the client's notification listener",
	// before any event can be published; strictly only for Submit.
	if err := s.subscribeRun(ctx, r, via == submitted); err != nil {
		return false, err
	}
	// Fig. 3 step 2, once per set: the NIS itself, so a machine whose
	// registration returned before the Submit is seen by this set's first
	// dispatch. Best-effort: a failed poll leaves the cache as it was.
	_, _ = s.pollCatalog(ctx)
	if via == activated {
		// Queued → Running in the journal, before the run can be seen.
		if err := s.persist(r, effects{status: true}, nil); err != nil {
			return false, err
		}
	}
	if !s.sets.makeLive(r) {
		return false, nil
	}
	if via == recovered && s.adm != nil {
		// The set holds one of its tenant's running slots until it goes
		// terminal, so post-crash dispatch still honors the running cap.
		s.adm.AdoptRunning(r.tenant)
	}
	if r.cannotRun != "" {
		s.fire(ctx, r, event{kind: evFailed, reason: r.cannotRun})
		return false, nil
	}
	// Off the caller's path; a restored set with every job settled is
	// closed out by the reservation that finds nothing to do.
	go s.scheduleReady(ctx, r)
	return true, nil
}

// letGo is the one way out: whatever this master remembers of a set — its
// registry entry and, parked, its place in the admission queue — is
// forgotten, whether the resource was destroyed, the set evicted or
// cancelled while parked. It returns the run that was live,
// nil if none; what leaving means for it is the caller's transition.
func (s *Service) letGo(id string) *run {
	h := s.sets.remove(id)
	if h.parked() {
		s.adm.Remove(h.entry.Tenant, h.entry.Seq)
	}
	return h.run
}
