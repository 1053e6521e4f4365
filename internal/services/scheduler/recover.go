package scheduler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"uvacg/internal/wssec"
)

// Recover rebuilds in-memory runs for every job set that was still
// Running when the scheduler last stopped, using the state persisted in
// the job-set WS-Resources: the spec snapshot, the client's endpoints
// and per-job progress. Completed jobs keep their recorded output
// directories; jobs that were pending, dispatched or running are
// re-dispatched (job scripts are deterministic, so a re-run is safe).
// Secured runs cannot be resumed — credentials are never persisted — so
// they are failed explicitly rather than left hanging. Call Recover
// once, after the scheduler's services and consumer are mounted.
//
// It returns how many runs were resumed. A job set that cannot be
// resumed (unparseable spec snapshot, broker subscription failure) is
// skipped, not fatal: the remaining sets still recover, and the
// per-set failures come back joined in the error.
//
// Under sharding, only sets in shards this master currently holds are
// touched — recovering (or even republishing for) a peer's shard would
// break the single-writer guarantee.
func (s *Service) Recover(ctx context.Context) (int, error) {
	return s.recoverFiltered(ctx, s.ownsSet)
}

// RecoverShard recovers the job sets of one shard — the failover path,
// run after the lease on a dead or lapsed peer's shard is claimed.
func (s *Service) RecoverShard(ctx context.Context, shard int) (int, error) {
	return s.recoverFiltered(ctx, func(name string) bool {
		return s.sharding != nil && s.shardOf(name) == shard && s.ownsSet(name)
	})
}

// recoverFiltered is the shared recovery sweep; accept filters by
// job-set name. Sets that already have a live run are left alone, so
// overlapping sweeps (initial Recover racing a lease-acquired
// RecoverShard) are idempotent.
func (s *Service) recoverFiltered(ctx context.Context, accept func(name string) bool) (int, error) {
	home := s.svc.Home()
	resumed, unsubscribed := 0, false
	var errs []error
	// Wire the consumer and (best-effort) warm the catalog cache before
	// touching any set: a recovering master wants pushed load data for
	// the re-dispatches it is about to make.
	s.mu.Lock()
	s.wireConsumerLocked()
	s.mu.Unlock()
	s.syncCatalog(ctx)
	s.ensureReplicaSubscription(ctx)
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if err != nil {
			continue
		}
		if !accept(doc.ChildText(QName)) {
			continue
		}
		topic := doc.ChildText(QTopic)
		s.mu.Lock()
		active := topic != "" && s.runs[topic] != nil
		s.mu.Unlock()
		if active {
			continue
		}
		status := doc.ChildText(QStatus)
		if status == SetQueued && s.adm != nil {
			// An acked enqueue the crash interrupted before activation: the
			// Queued document is the journal record, so re-park it
			// (invariant I6 — no acked enqueue lost). Requeue inserts in
			// admission-sequence order, so replay rebuilds the old queue.
			if e, ok := queuedEntry(id, doc); ok {
				if s.park(e, wssec.Credentials{}) {
					resumed++
				}
			} else {
				errs = append(errs, fmt.Errorf("scheduler: job set %q is queued but has no admission coordinates", id))
			}
			continue
		}
		if status != SetRunning && status != SetQueued {
			// Terminal set whose completion event may never have left the
			// building: the status write and the broker publish are not
			// atomic, so a crash between them silently eats the client's
			// terminal notification. Republish unless the notified marker
			// proves delivery was attempted — duplicates are fine, the
			// contract is at-least-once.
			if topic != "" && TerminalSetStatus(status) && doc.Attr(qNotifiedAttr) != "true" {
				if err := s.republish(ctx, id, topic, status, "replayed after scheduler restart"); err != nil {
					errs = append(errs, fmt.Errorf("scheduler: job set %q: %w", id, err))
				}
			}
			continue
		}
		// A Queued document on a master with admission turned off falls
		// through: the parked set is promoted straight into a run.
		if topic == "" {
			continue
		}
		r, err := s.restoreRun(id, doc, wssec.Credentials{})
		switch {
		case errors.Is(err, errNoSpec):
			errs = append(errs, fmt.Errorf("scheduler: job set %q has no recoverable spec", id))
			continue
		case err != nil:
			// A persisted snapshot that fails validation (cyclic DAG,
			// missing references — possible via corruption or an old
			// writer) would deadlock scheduleReady forever: no job ever
			// becomes ready. Fail the set loudly instead of hanging.
			if _, ferr := s.apply(ctx, r, event{kind: evFailed, reason: fmt.Sprintf("recovered spec is invalid: %v", err)}); ferr != nil {
				errs = append(errs, fmt.Errorf("scheduler: job set %q: %w", id, ferr))
			}
			errs = append(errs, fmt.Errorf("scheduler: job set %q: invalid recovered spec: %w", id, err))
			continue
		}

		// Re-establish the broker subscriptions before the run can be
		// seen (the old process's consumer EPR died with it; a fresh one
		// is cheap and idempotent in effect). The client's is best-effort.
		if err := s.subscribeRun(ctx, r, false); err != nil {
			errs = append(errs, fmt.Errorf("scheduler: recover %q: %w", id, err))
			unsubscribed = true
			continue
		}
		unfinished := r.st.firstUnfinished() // read before the run is shared
		s.mu.Lock()
		if s.runs[topic] != nil {
			// A concurrent sweep registered this set first.
			s.mu.Unlock()
			continue
		}
		s.runs[topic] = r
		s.runIDs[id] = topic
		s.mu.Unlock()
		if s.adm != nil {
			// The recovered set holds one of its tenant's running slots
			// until it goes terminal, so post-crash dispatch still honors
			// the per-tenant running cap.
			s.adm.AdoptRunning(r.tenant)
		}
		if unfinished != "" && doc.Attr(qSecured) == "true" {
			// Credentials died with the old process: be explicit. No
			// retry can cure this — no attempt can even be dispatched.
			s.fire(ctx, r, event{kind: evFailed, job: unfinished, final: true,
				reason: "scheduler restarted; credentials are not persisted, resubmit the job set"})
			continue
		}
		resumed++
		// A set whose every job had already settled is closed out by the
		// reservation that finds nothing left to do.
		go s.scheduleReady(context.WithoutCancel(ctx), r)
	}
	if unsubscribed {
		// Sets skipped because the broker did not answer are acked work
		// nothing else would pick up: sweep again (idempotent) until it
		// does. The caller has this pass's errors; the next retries itself.
		time.AfterFunc(admissionRetryDelay, func() { _, _ = s.recoverFiltered(context.WithoutCancel(ctx), accept) })
	}
	return resumed, errors.Join(errs...)
}

// republish re-sends a terminal set event straight from a persisted
// document and, once the broker took it, stamps the marker. A failed
// publish is not an error: the marker stays off and the next sweep tries
// again (at-least-once).
func (s *Service) republish(ctx context.Context, id, topic, status, detail string) error {
	if s.publishSetEvent(ctx, id, topic, status, detail) != nil {
		return nil
	}
	return s.stampNotified(id, nil)
}

// TerminalSetStatus reports whether status is one of the three
// terminal set states.
func TerminalSetStatus(status string) bool {
	return status == SetCompleted || status == SetFailed || status == SetCancelled
}
