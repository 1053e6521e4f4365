package scheduler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// Recover rebuilds in-memory runs for every job set that was still
// Running when the scheduler last stopped, using the state persisted in
// the job-set WS-Resources: the spec snapshot, the client's endpoints
// and per-job progress. Completed jobs keep their recorded output
// directories; jobs that were pending, dispatched or running are
// re-dispatched (job scripts are deterministic, so a re-run is safe).
// A set that cannot be resumed — no readable or valid spec snapshot, or
// secured with work left: credentials are never persisted — is failed
// explicitly rather than left hanging. Call Recover once, after the
// scheduler's services and consumer are mounted.
//
// It returns how many runs were resumed. A job set that was not (bad
// spec snapshot, broker subscription failure) is not fatal: the remaining
// sets still recover, and the per-set failures come back joined in the
// error.
//
// Sets the registry already holds, parked or live, are left alone, so
// overlapping sweeps (a retried Recover racing an activation) are
// idempotent.
func (s *Service) Recover(ctx context.Context) (int, error) {
	resumed, unsubscribed := 0, false
	err := s.sweep(ctx, func(id string, doc *xmlutil.Element) error {
		if h := s.sets.get(id); h.run != nil || h.parked() {
			return nil
		}
		if doc.ChildText(QStatus) == SetQueued && s.adm != nil {
			// An acked enqueue the crash interrupted before activation: the
			// Queued document is the journal record, so re-park it
			// (invariant I6 — no acked enqueue lost).
			e, ok := queuedEntry(id, doc)
			if !ok {
				return errors.New("queued but has no admission coordinates")
			}
			if s.park(e, wssec.Credentials{}) {
				resumed++
			}
			return nil
		}
		// A Queued document on a master with admission turned off falls
		// through: the parked set is promoted straight into a run.
		r, badSpec := s.restoreRun(id, doc, wssec.Credentials{})
		live, err := s.takeOn(ctx, r, recovered)
		if err != nil {
			unsubscribed = true
			return fmt.Errorf("recover: %w", err)
		}
		if live {
			resumed++
		}
		return badSpec // failed as a set, not resumed: the caller hears why
	})
	if unsubscribed {
		// Sets skipped because the broker did not answer are acked work
		// nothing else would pick up: sweep again (idempotent) until it
		// does. The caller has this pass's errors; the next retries itself.
		time.AfterFunc(admissionRetryDelay, func() { _, _ = s.Recover(context.WithoutCancel(ctx)) })
	}
	return resumed, err
}

// sweep is the one walk over the stored job sets. A terminal one whose
// completion event may never have left the building — the status write
// and the broker publish are not atomic — is republished unless its
// notified marker proves the broker took it; duplicates are fine, the
// contract is at-least-once, and the event's detail says why it is late.
// Every other goes to unfinished. Failures come back joined, each under
// its set's id; none stops the walk.
func (s *Service) sweep(ctx context.Context, unfinished func(id string, doc *xmlutil.Element) error) error {
	var errs []error
	home := s.svc.Home()
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if err != nil {
			continue
		}
		topic, status := doc.ChildText(QTopic), doc.ChildText(QStatus)
		switch {
		case topic == "":
			// Half-born before the topic was in the first write: never acked.
		case TerminalSetStatus(status):
			// A failed publish is not an error: the marker stays off and the
			// next sweep tries again.
			if doc.Attr(qNotifiedAttr) != "true" && s.publishSetEvent(ctx, id, topic, status, "replayed after scheduler restart") == nil {
				err = s.stampNotified(id, nil)
			}
		default:
			err = unfinished(id, doc)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("scheduler: job set %q: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// TerminalSetStatus reports whether status is one of the three
// terminal set states.
func TerminalSetStatus(status string) bool {
	return status == SetCompleted || status == SetFailed || status == SetCancelled
}
