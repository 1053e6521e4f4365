package scheduler

import (
	"context"
	"errors"
	"fmt"

	"uvacg/internal/wsrf"
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
// scheduler's services and consumer are mounted and its standing
// subscription made (master.Assemble).
//
// A terminal set whose completion event may never have left the
// building — the status write and the broker publish are not atomic — is
// republished unless its notified marker proves the broker took it;
// duplicates are fine, the contract is at-least-once, and the event's
// detail says why it is late. Sets the registry holds are left alone.
//
// It returns how many runs were resumed. A set that was not (a bad spec
// snapshot; an unreadable document, which may be acked work) is not
// fatal: the rest still recover, and the failures come back joined in
// the error, each under its set's id.
func (s *Service) Recover(ctx context.Context) (int, error) {
	resumed := 0
	var errs []error
	home := s.svc.Home()
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		switch {
		case errors.Is(err, wsrf.ErrNoSuchResource):
			continue // destroyed since IDs listed it
		case err != nil: // reported below
		case doc.ChildText(QTopic) == "":
			// Half-born before the topic was in the first write: never acked.
		case TerminalSetStatus(doc.ChildText(QStatus)):
			// A failed publish is not an error: the marker stays off and the
			// next start's walk tries again.
			topic, status := doc.ChildText(QTopic), doc.ChildText(QStatus)
			if doc.Attr(qNotifiedAttr) != "true" && s.publishSetEvent(ctx, id, topic, status, "replayed after scheduler restart") == nil {
				err = s.stampNotified(id)
			}
		case s.sets.get(id) != nil: // live already: left alone
		default:
			var r *run
			r, err = s.restoreRun(id, doc) // a bad spec: failed as a set, not resumed, and the caller hears why
			// Only a Submit's takeOn can fail: a recovered set's listener is
			// subscribed again best-effort.
			if live, _ := s.takeOn(ctx, r, recovered); live {
				resumed++
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("scheduler: job set %q: %w", id, err))
		}
	}
	return resumed, errors.Join(errs...)
}

// TerminalSetStatus reports whether status is one of the three
// terminal set states.
func TerminalSetStatus(status string) bool {
	return status == SetCompleted || status == SetFailed || status == SetCancelled
}
