package soap

import (
	"context"
	"fmt"
	"sync"
)

// HandlerFunc processes one SOAP request envelope and produces a reply.
// A (nil, nil) return is the empty response to a void method; one-way
// messages never have their return delivered (the transport has already
// closed the connection, per the paper's distinction between one-way
// messages and void-returning methods).
type HandlerFunc func(ctx context.Context, req *Envelope) (*Envelope, error)

// Dispatcher routes envelopes to handlers by WS-Addressing action URI.
// It is the Go analog of the ASP.NET dispatch step in WSRF.NET's wrapper
// service (paper Fig. 1): one dispatcher per hosted service. It has no
// layers of its own: the transport server's chain runs around every
// dispatch, and a handler that secures its action verifies the request
// itself.
type Dispatcher struct {
	mu       sync.RWMutex
	handlers map[string]HandlerFunc
}

// NewDispatcher creates an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[string]HandlerFunc)}
}

// Register binds an action URI to a handler. Registering a duplicate
// action panics: port-type composition bugs should fail at wiring time,
// not be discovered as silently shadowed methods.
func (d *Dispatcher) Register(action string, h HandlerFunc) {
	if action == "" {
		panic("soap: Register with empty action")
	}
	if h == nil {
		panic("soap: Register with nil handler for " + action)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.handlers[action]; dup {
		panic("soap: duplicate handler for action " + action)
	}
	d.handlers[action] = h
}

// DispatchCall hands a call's request to the handler for its action;
// unknown actions yield a Sender fault. The transport server builds the
// CallInfo its own chain ran with.
func (d *Dispatcher) DispatchCall(ctx context.Context, call *CallInfo) (*Envelope, error) {
	d.mu.RLock()
	h, ok := d.handlers[call.Action]
	d.mu.RUnlock()
	if !ok {
		return nil, SenderFault("no handler for action %q", call.Action)
	}
	return h(ctx, call.Request)
}

// Mux routes to one of several dispatchers by service path, letting a
// single listener host many services the way one IIS instance hosts many
// ASP.NET endpoints.
type Mux struct {
	mu       sync.RWMutex
	services map[string]*Dispatcher
}

// NewMux creates an empty Mux.
func NewMux() *Mux { return &Mux{services: make(map[string]*Dispatcher)} }

// Handle binds a service path (e.g. "/FileSystemService") to a
// dispatcher. Duplicate paths panic, as with Register.
func (m *Mux) Handle(path string, d *Dispatcher) {
	if path == "" || path[0] != '/' {
		panic(fmt.Sprintf("soap: service path %q must begin with '/'", path))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.services[path]; dup {
		panic("soap: duplicate service path " + path)
	}
	m.services[path] = d
}

// Lookup finds the dispatcher for a path.
func (m *Mux) Lookup(path string) (*Dispatcher, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.services[path]
	return d, ok
}
