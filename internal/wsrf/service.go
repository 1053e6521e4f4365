package wsrf

import (
	"context"
	"fmt"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// MethodFunc is a service-author method: it receives the invocation
// (resource state loaded) and the request body, and returns the response
// body (nil for void). Errors become SOAP faults; return a BaseFault for
// typed WSRF faults.
type MethodFunc func(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error)

// PropertyProvider computes a resource property on demand — the analog
// of a C# property getter annotated [ResourceProperty] (paper Fig. 2).
// Providers may return multiple elements (multi-valued properties).
type PropertyProvider func(ctx context.Context, inv *Invocation) ([]*xmlutil.Element, error)

// PortType bundles WSRF-defined operations a service imports, the
// [WSRFPortType] attribute's role.
type PortType interface {
	// Attach registers the port type's actions on the service.
	Attach(s *Service)
}

// Service is the WSRF.NET ServiceSkeleton equivalent: a dispatcher wired
// with the wrapper pipeline, a resource home, and composed port types.
type Service struct {
	path       string
	address    string
	home       ResourceHome
	dispatcher *soap.Dispatcher
	locks      *resourceLocks
	providers  map[xmlutil.QName]PropertyProvider
	onDestroy  []func(id string)
	terms      terminations
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Path is the service path hosted in the transport mux, e.g.
	// "/ExecutionService".
	Path string
	// Address is the base address EPRs are minted with, e.g.
	// "inproc://node-a" or "http://host:port" (no trailing slash).
	Address string
	// Home manages the service's WS-Resources. May be nil for pure
	// stateless services.
	Home ResourceHome
}

// NewService builds a service with the wrapper pipeline installed.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Path == "" || cfg.Path[0] != '/' {
		return nil, fmt.Errorf("wsrf: service path %q must begin with '/'", cfg.Path)
	}
	if cfg.Address == "" {
		return nil, fmt.Errorf("wsrf: service %s needs a base address", cfg.Path)
	}
	s := &Service{
		path:       cfg.Path,
		address:    cfg.Address,
		home:       cfg.Home,
		dispatcher: soap.NewDispatcher(),
		locks:      newResourceLocks(),
		providers:  make(map[xmlutil.QName]PropertyProvider),
	}
	return s, nil
}

// MustService is NewService that panics; for wiring code whose inputs
// are compile-time constants.
func MustService(cfg ServiceConfig) *Service {
	s, err := NewService(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Path returns the hosted path.
func (s *Service) Path() string { return s.path }

// Address returns the minting base address.
func (s *Service) Address() string { return s.address }

// Home returns the resource home (may be nil).
func (s *Service) Home() ResourceHome { return s.home }

// Dispatcher exposes the action dispatcher for transport registration.
func (s *Service) Dispatcher() *soap.Dispatcher { return s.dispatcher }

// EPR returns the service's resource-less EPR.
func (s *Service) EPR() wsa.EndpointReference {
	return wsa.NewEPR(s.address + s.path)
}

// EPRFor mints the EPR of one of this service's resources.
func (s *Service) EPRFor(id string) wsa.EndpointReference {
	if id == "" {
		return s.EPR()
	}
	return s.EPR().WithProperty(QResourceID, id)
}

// Enable composes a WSRF port type into the service.
func (s *Service) Enable(pt PortType) *Service {
	pt.Attach(s)
	return s
}

// OnDestroy registers a hook observing resource destruction through the
// lifetime port type or DestroyResource. A service registers its hooks
// before it enables LifetimePortType, whose start-up walk may destroy.
func (s *Service) OnDestroy(fn func(id string)) { s.onDestroy = append(s.onDestroy, fn) }

// RegisterProperty declares a computed resource property (a
// [ResourceProperty] getter). State-document children are automatically
// visible as properties without registration.
func (s *Service) RegisterProperty(name xmlutil.QName, p PropertyProvider) {
	if _, dup := s.providers[name]; dup {
		panic("wsrf: duplicate property provider for " + name.String())
	}
	s.providers[name] = p
}

// How a registered method uses the resource its EPR addresses.
type resourceUse int

const (
	noResource    resourceUse = iota // nothing is loaded
	readResource                     // load → dispatch
	writeResource                    // lock → load → dispatch → save if changed
)

// RegisterMethod registers an author-defined resource method: the
// pipeline resolves and loads the addressed resource, serializes access
// per resource, runs fn, and saves the document back if changed.
func (s *Service) RegisterMethod(action string, fn MethodFunc) {
	s.register(action, fn, writeResource)
}

// RegisterReadMethod registers a resource method that only reads: it is
// handed the last saved document without waiting for the resource's lock
// — which a writer holds across its journal commit — and nothing is saved
// back, so whatever fn does to the document is dropped.
func (s *Service) RegisterReadMethod(action string, fn MethodFunc) {
	s.register(action, fn, readResource)
}

// RegisterServiceMethod registers a method that does not address a
// resource (factories, queries across resources). No state is loaded.
func (s *Service) RegisterServiceMethod(action string, fn MethodFunc) {
	s.register(action, fn, noResource)
}

func (s *Service) register(action string, fn MethodFunc, use resourceUse) {
	s.dispatcher.Register(action, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return s.invokeWithResource(ctx, req, fn, use)
	})
}

// invokeWithResource is the wrapper pipeline (paper Fig. 1): resolve the
// EPR, lock + load, dispatch, save-if-changed — the lock, the change
// detection and the save only for methods that may write.
func (s *Service) invokeWithResource(ctx context.Context, req *soap.Envelope, fn MethodFunc, use resourceUse) (*soap.Envelope, error) {
	info, _ := wsa.FromContext(ctx)
	inv := &Invocation{Service: s, Info: info, Req: req}
	inv.ResourceID = info.To.Property(QResourceID)

	if use != noResource {
		if inv.ResourceID == "" {
			return nil, NewBaseFault("ResourceUnknownFault", "invocation does not address a resource (missing ResourceID reference property)").SOAPFault(soap.CodeSender)
		}
		if s.home == nil {
			return nil, soap.ReceiverFault("wsrf: service %s has no resource home", s.path)
		}
		if use == writeResource {
			defer s.locks.acquire(inv.ResourceID)()
		}
		doc, err := s.home.Load(inv.ResourceID)
		if err != nil {
			return nil, resourceFault(err)
		}
		inv.Doc = doc
		if use == writeResource {
			inv.pristine = doc.Clone()
		}
	}

	respBody, err := fn(ctx, inv, req.Body)
	if err != nil {
		return nil, err
	}

	if use == writeResource && !inv.destroyed && inv.Doc != nil && !inv.Doc.Equal(inv.pristine) {
		if err := s.home.Save(inv.ResourceID, inv.Doc); err != nil {
			return nil, soap.ReceiverFault("wsrf: save resource state: %v", err)
		}
	}
	if respBody == nil && len(inv.replyAtts) == 0 {
		return nil, nil
	}
	resp := soap.New(respBody)
	resp.Attachments = inv.replyAtts
	return resp, nil
}

// CreateResource provisions a new resource in the home and returns its
// EPR — the server-side half of every factory operation in the testbed
// (the FSS creating directory resources, the SS creating job sets...).
func (s *Service) CreateResource(id string, initial *xmlutil.Element) (wsa.EndpointReference, error) {
	if s.home == nil {
		return wsa.EndpointReference{}, fmt.Errorf("wsrf: service %s has no resource home", s.path)
	}
	if id == "" {
		id = wsa.NewMessageID()[len("urn:uuid:"):]
	}
	if err := s.home.Create(id, initial); err != nil {
		return wsa.EndpointReference{}, err
	}
	return s.EPRFor(id), nil
}

// DestroyResource removes a resource and runs destroy hooks, under the
// invocation lock: a destroy never lands inside another writer's
// load → save.
func (s *Service) DestroyResource(id string) error {
	defer s.locks.acquire(id)()
	return s.destroy(id)
}

// destroy is DestroyResource for a caller that holds the resource's lock.
// It disarms the resource's termination timer, whichever way it came.
func (s *Service) destroy(id string) error {
	if s.home == nil {
		return fmt.Errorf("wsrf: service %s has no resource home", s.path)
	}
	if err := s.home.Destroy(id); err != nil {
		return err
	}
	s.disarm(id)
	for _, fn := range s.onDestroy {
		fn(id)
	}
	return nil
}

// LoadResource reads a resource's state outside an invocation (status
// displays, schedulers inspecting their own resources).
func (s *Service) LoadResource(id string) (*xmlutil.Element, error) {
	if s.home == nil {
		return nil, fmt.Errorf("wsrf: service %s has no resource home", s.path)
	}
	return s.home.Load(id)
}

// LockResource takes a resource's invocation lock and loads nothing —
// for a service whose home keeps one resource in several rows and
// rewrites one of them. The caller runs the returned release.
func (s *Service) LockResource(id string) (release func()) { return s.locks.acquire(id) }

// UpdateResource applies fn to a resource's state under the invocation
// lock and persists the result — for server-internal state transitions
// (a notification arriving marks a job Exited).
func (s *Service) UpdateResource(id string, fn func(doc *xmlutil.Element) error) error {
	if s.home == nil {
		return fmt.Errorf("wsrf: service %s has no resource home", s.path)
	}
	defer s.locks.acquire(id)()
	doc, err := s.home.Load(id)
	if err != nil {
		return err
	}
	if err := fn(doc); err != nil {
		return err
	}
	return s.home.Save(id, doc)
}

func resourceFault(err error) error {
	return NewBaseFault("ResourceUnknownFault", err.Error()).SOAPFault(soap.CodeSender)
}
