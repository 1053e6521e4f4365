package scheduler

import (
	"context"
	"errors"
	"fmt"

	"uvacg/internal/wsrf"
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
// scheduler's services and consumer are mounted and its standing
// subscription made (master.Assemble).
//
// It returns how many runs were resumed. A job set that was not (a bad
// spec snapshot, an unreadable document) is not fatal: the remaining sets
// still recover, and the per-set failures come back joined in the error.
// Sets the registry already holds are left alone.
func (s *Service) Recover(ctx context.Context) (int, error) {
	resumed := 0
	err := s.sweep(ctx, func(id string, doc *xmlutil.Element) error {
		if s.sets.get(id) != nil {
			return nil
		}
		r, badSpec := s.restoreRun(id, doc, wssec.Credentials{})
		// Only a Submit's takeOn can fail: a recovered set's listener is
		// subscribed again best-effort.
		if live, _ := s.takeOn(ctx, r, recovered); live {
			resumed++
		}
		return badSpec // failed as a set, not resumed: the caller hears why
	})
	return resumed, err
}

// sweep is the one walk over the stored job sets. A terminal one whose
// completion event may never have left the building — the status write
// and the broker publish are not atomic — is republished unless its
// notified marker proves the broker took it; duplicates are fine, the
// contract is at-least-once, and the event's detail says why it is late.
// Every other goes to unfinished. A document that cannot be read may be
// acked work, so it is reported, not skipped. Failures come back joined,
// each under its set's id; none stops the walk.
func (s *Service) sweep(ctx context.Context, unfinished func(id string, doc *xmlutil.Element) error) error {
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
			// next start's sweep tries again.
			topic, status := doc.ChildText(QTopic), doc.ChildText(QStatus)
			if doc.Attr(qNotifiedAttr) != "true" && s.publishSetEvent(ctx, id, topic, status, "replayed after scheduler restart") == nil {
				err = s.stampNotified(id)
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
