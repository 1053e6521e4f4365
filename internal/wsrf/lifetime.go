package wsrf

import (
	"context"
	"strings"
	"sync"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// LifetimePortType implements WS-ResourceLifetime: immediate destruction
// (Destroy) and scheduled destruction (SetTerminationTime). The
// termination time is itself a resource property, visible through
// WS-ResourceProperties.
type LifetimePortType struct{}

// Attach implements PortType.
func (LifetimePortType) Attach(s *Service) {
	s.RegisterMethod(ActionDestroy, s.handleDestroy)
	s.RegisterMethod(ActionSetTerminationTime, s.handleSetTerminationTime)
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

// Reaper sweeps a service's resources, destroying any whose termination
// time has passed — the background half of scheduled destruction.
type Reaper struct {
	service  *Service
	interval time.Duration
	now      func() time.Time

	mu      sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
}

// NewReaper builds a reaper over s sweeping at the given interval.
func NewReaper(s *Service, interval time.Duration) *Reaper {
	return &Reaper{service: s, interval: interval, now: time.Now}
}

// WithClock overrides the time source (tests, simulated time).
func (r *Reaper) WithClock(now func() time.Time) *Reaper {
	r.now = now
	return r
}

// SweepOnce destroys every expired resource and returns the count.
func (r *Reaper) SweepOnce() int {
	home := r.service.Home()
	if home == nil {
		return 0
	}
	now := r.now()
	destroyed := 0
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if err != nil {
			continue // destroyed concurrently
		}
		if tt, ok := TerminationTimeOf(doc); ok && !tt.After(now) {
			if err := r.service.DestroyResource(id); err == nil {
				destroyed++
			}
		}
	}
	return destroyed
}

// Start launches the background sweep loop. Stop with Stop.
func (r *Reaper) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.stopped = make(chan struct{})
	go func(stop, stopped chan struct{}) {
		defer close(stopped)
		ticker := time.NewTicker(r.interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				r.SweepOnce()
			}
		}
	}(r.stop, r.stopped)
}

// Stop halts the sweep loop and waits for it to exit.
func (r *Reaper) Stop() {
	r.mu.Lock()
	stop, stopped := r.stop, r.stopped
	r.stop, r.stopped = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-stopped
	}
}
