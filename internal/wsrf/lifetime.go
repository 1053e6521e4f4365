package wsrf

import (
	"context"
	"log"
	"strings"
	"sync"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// LifetimePortType implements WS-ResourceLifetime: immediate destruction
// (Destroy) and scheduled destruction (SetTerminationTime). The
// termination time is itself a resource property, visible through
// WS-ResourceProperties. A scheduled resource has one runtime timer,
// armed where its time is written and disarmed when it is destroyed; no
// walk over the home runs after start-up.
type LifetimePortType struct{}

// Attach implements PortType. It arms a timer for every termination time
// the home already stores, once: a time that passed while the service
// was down fires at once. A service therefore registers its OnDestroy
// hooks before it enables this port type. A row the walk cannot read is
// left to the service's own recovery.
func (LifetimePortType) Attach(s *Service) {
	s.RegisterMethod(ActionDestroy, s.handleDestroy)
	s.RegisterMethod(ActionSetTerminationTime, s.handleSetTerminationTime)
	if s.home == nil {
		return
	}
	for _, id := range s.home.IDs() {
		if doc, err := s.home.Load(id); err == nil {
			if tt, ok := TerminationTimeOf(doc); ok {
				s.arm(id, tt)
			}
		}
	}
}

// terminations holds the armed timer of each resource with a scheduled
// termination.
type terminations struct {
	mu     sync.Mutex
	timers map[string]*termination
}

// termination is one armed timer. Its identity tells a firing timer
// whether it is still its resource's current one.
type termination struct {
	timer *time.Timer
	// retry marks the one timer armed again after a failed destroy.
	retry bool
}

// destroyRetryDelay is how long an expired resource whose destroy failed
// waits for its one retry. A retry that fails too is left to the next
// start's walk.
const destroyRetryDelay = 500 * time.Millisecond

// arm replaces id's timer with one that fires at tt.
func (s *Service) arm(id string, tt time.Time) { s.armIn(id, time.Until(tt), false) }

// armIn replaces id's timer with one that fires after d.
func (s *Service) armIn(id string, d time.Duration, retry bool) {
	ts := &s.terms
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.stop(id)
	if ts.timers == nil {
		ts.timers = make(map[string]*termination)
	}
	t := &termination{retry: retry}
	t.timer = time.AfterFunc(d, func() { s.expire(id, t) })
	ts.timers[id] = t
}

// Renew writes doc as resource id's whole state, creating the resource if
// it is new, with its termination time set to tt, and arms its timer: the
// one write of a soft-state resource, which lives only as long as its
// writer keeps renewing it. doc carries no termination time of its own.
func (s *Service) Renew(id string, doc *xmlutil.Element, tt time.Time) error {
	defer s.locks.acquire(id)()
	doc.Append(xmlutil.NewElement(QTerminationTime, tt.UTC().Format(time.RFC3339Nano)))
	var err error
	if s.home.Exists(id) {
		err = s.home.Save(id, doc)
	} else {
		err = s.home.Create(id, doc)
	}
	if err != nil {
		return err
	}
	s.arm(id, tt)
	return nil
}

// disarm stops id's timer, if it has one.
func (s *Service) disarm(id string) {
	s.terms.mu.Lock()
	defer s.terms.mu.Unlock()
	s.terms.stop(id)
}

// stop stops and forgets id's timer. The caller holds mu.
func (ts *terminations) stop(id string) {
	if t := ts.timers[id]; t != nil {
		t.timer.Stop()
		delete(ts.timers, id)
	}
}

// expire runs when t fires. Under the resource's lock it reloads the
// document and destroys the resource only if the stored time has passed.
// An extension or a cancel that raced the timer has replaced or stopped
// t, so t does nothing; a write whose save failed left the stored time,
// and that is the one obeyed. A destroy that fails is tried once more,
// destroyRetryDelay later.
func (s *Service) expire(id string, t *termination) {
	defer s.locks.acquire(id)()
	s.terms.mu.Lock()
	current := s.terms.timers[id] == t
	if current {
		delete(s.terms.timers, id)
	}
	s.terms.mu.Unlock()
	if !current {
		return
	}
	doc, err := s.home.Load(id)
	if err != nil {
		log.Printf("wsrf: %s: resource %s: termination timer cannot read it: %v", s.path, id, err)
		return
	}
	tt, ok := TerminationTimeOf(doc)
	if !ok {
		return
	}
	if tt.After(time.Now()) {
		s.arm(id, tt)
		return
	}
	if err := s.destroy(id); err != nil {
		if t.retry {
			log.Printf("wsrf: %s: resource %s expired, and its destroy failed again; the next start retries it: %v", s.path, id, err)
			return
		}
		log.Printf("wsrf: %s: resource %s expired, and its destroy failed; retrying in %v: %v", s.path, id, destroyRetryDelay, err)
		s.armIn(id, destroyRetryDelay, true)
	}
}

func (s *Service) handleDestroy(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if err := s.destroy(inv.ResourceID); err != nil {
		return nil, NewBaseFault("ResourceNotDestroyedFault", "%v", err).SOAPFault(soap.CodeReceiver)
	}
	inv.markDestroyed()
	return &xmlutil.Element{Name: qDestroyResponse}, nil
}

func (s *Service) handleSetTerminationTime(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("SetTerminationTime requires a request body")
	}
	requested := strings.TrimSpace(body.ChildText(qRequestedTermTime))
	now := time.Now().UTC()
	if requested == "" {
		// Empty/absent termination time = live indefinitely.
		inv.RemoveProperty(QTerminationTime)
		s.disarm(inv.ResourceID)
		resp := xmlutil.NewContainer(qSetTermTimeResponse,
			xmlutil.NewElement(qNewTermTime, ""),
			xmlutil.NewElement(qCurrentTime, now.Format(time.RFC3339Nano)),
		)
		return resp, nil
	}
	tt, err := time.Parse(time.RFC3339Nano, requested)
	if err != nil {
		return nil, NewBaseFault("UnableToSetTerminationTimeFault", "bad termination time %q: %v", requested, err).SOAPFault(soap.CodeSender)
	}
	inv.SetProperty(QTerminationTime, tt.UTC().Format(time.RFC3339Nano))
	s.arm(inv.ResourceID, tt)
	resp := xmlutil.NewContainer(qSetTermTimeResponse,
		xmlutil.NewElement(qNewTermTime, tt.UTC().Format(time.RFC3339Nano)),
		xmlutil.NewElement(qCurrentTime, now.Format(time.RFC3339Nano)),
	)
	return resp, nil
}

// SetTerminationTimeRequest builds the client request body. A zero time
// requests indefinite lifetime.
func SetTerminationTimeRequest(tt time.Time) *xmlutil.Element {
	text := ""
	if !tt.IsZero() {
		text = tt.UTC().Format(time.RFC3339Nano)
	}
	return xmlutil.NewContainer(qSetTermTime, xmlutil.NewElement(qRequestedTermTime, text))
}

// DestroyRequest builds the client request body.
func DestroyRequest() *xmlutil.Element { return &xmlutil.Element{Name: qDestroy} }

// TerminationTimeOf reads a state document's scheduled termination, if
// any.
func TerminationTimeOf(doc *xmlutil.Element) (time.Time, bool) {
	if doc == nil {
		return time.Time{}, false
	}
	text := strings.TrimSpace(doc.ChildText(QTerminationTime))
	if text == "" {
		return time.Time{}, false
	}
	tt, err := time.Parse(time.RFC3339Nano, text)
	if err != nil {
		return time.Time{}, false
	}
	return tt, true
}
