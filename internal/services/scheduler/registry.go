package scheduler

import (
	"context"
	"maps"
	"strings"
	"sync"

	"uvacg/internal/pipeline"
)

// topicPrefix is the pure function between a job set's resource id and its
// topic: "The Scheduler service then generates a unique topic name for
// events related to this job set."
const topicPrefix = "jobset-"

// registry is what a master remembers of its job sets: the live run of
// each, keyed once by resource id. Its methods are the only code that adds
// or removes a set, and none of them calls out: subscriptions and journal
// writes belong to takeOn, letGo and their callers, outside the lock.
type registry struct {
	mu   sync.RWMutex
	sets map[string]*run
}

// add is the only way a run becomes visible, and not at all when a run of
// the set is live already — a concurrent sweep won.
func (g *registry) add(r *run) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sets[r.id] != nil {
		return false
	}
	g.sets[r.id] = r
	return true
}

// remove forgets a set and returns its run, nil if there was none.
func (g *registry) remove(id string) *run {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.sets[id]
	delete(g.sets, id)
	return r
}

func (g *registry) get(id string) *run {
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
	return g.get(id)
}

// all is a snapshot of the runs by id, for walks that take a run's own
// lock on the way.
func (g *registry) all() map[string]*run {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return maps.Clone(g.sets)
}

// way is how a run reaches takeOn. The two differ in what they do before
// (create the document, or load it) and on failure, which stays with the
// caller, and in the line of takeOn that names them.
type way int

const (
	submitted way = iota // a new set: its document says Running already
	recovered            // a restart found its document unfinished
)

// takeOn is the one way in: it turns a new or restored run into a live one
// (Fig. 3 steps 1-2) — subscribe the client's listener to the set's topic,
// poll the catalog, make the run visible and start dispatching. live is
// false when nothing was started: on an error, which only a Submit can
// meet and undoes; when a run of this set was live already; and when the
// set cannot be run (restoreRun says why) and was taken on, like any set
// that ends here, only to be failed.
func (s *Service) takeOn(ctx context.Context, r *run, via way) (live bool, err error) {
	// The set outlives the request or sweep that brought it.
	ctx = context.WithoutCancel(ctx)
	flow, _ := pipeline.RequestIDFrom(ctx)
	r.flow = strings.Clone(flow) // kept past the request it came in
	// "subscribe both itself and the client's notification listener",
	// before any event can be published: the SS is subscribed to every set
	// already; the listener strictly only for Submit.
	if err := s.subscribeRun(ctx, r, via == submitted); err != nil {
		return false, err
	}
	// Fig. 3 step 2, once per set: the NIS itself, so a machine whose
	// registration returned before the Submit is seen by this set's first
	// dispatch. Best-effort: a failed poll leaves the cache as it was.
	_, _ = s.pollCatalog(ctx, 0)
	if !s.sets.add(r) {
		return false, nil
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

// letGo is the one way out: whatever this master remembers of a set is
// forgotten, and its run journals nothing more. It returns the run that was
// live, nil if none; what leaving means for it is the caller's transition.
func (s *Service) letGo(id string) *run {
	r := s.sets.remove(id)
	if r != nil {
		r.forgotten.Store(true)
	}
	return r
}
