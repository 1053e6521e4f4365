// Package transport carries SOAP envelopes between services. Three
// bindings are provided, selected by the URI scheme of the target EPR's
// address, mirroring the paper's testbed:
//
//	http://     the ordinary web service binding (IIS/ASP.NET analog);
//	            between this code's client and server a message with
//	            attachments is an HTTP body in soap.tcp's frame layout
//	soap.tcp:// framed SOAP over raw TCP (the WSE messaging analog used
//	            for large file movement from the client's machine)
//	inproc://   in-process loopback; envelopes still round-trip through
//	            their wire encoding so behaviour matches the networked
//	            bindings byte-for-byte
//
// A process never opens a socket to itself: a Client told (Colocate) that
// a base URL is served by a Server in its own process hands messages for
// it to that server the way inproc:// does — same bytes, same client and
// server interceptor chains, no socket.
//
// The package distinguishes request-response calls from one-way messages:
// a one-way send completes as soon as the message is handed over, before
// the service has processed it — the property the File System Service
// depends on for non-blocking uploads (paper §4.1).
package transport

import (
	"context"
	"fmt"
	"net/url"
	"sync"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// Message is a serialized envelope plus its binary attachments — the
// unit every binding moves, keeping file bytes out of the XML (no base64
// inflation, no escaping scan).
type Message struct {
	Envelope    []byte
	Attachments []soap.Attachment
}

// RoundTripper moves messages for one URI scheme, attachments raw in both
// directions.
type RoundTripper interface {
	// RoundTrip performs a request-response exchange.
	RoundTrip(ctx context.Context, addr string, request *Message) (response *Message, err error)
	// Send delivers a one-way message, returning once it is handed off.
	Send(ctx context.Context, addr string, request *Message) error
}

// idleCloser is the optional interface of transports that pool
// connections.
type idleCloser interface{ CloseIdleConnections() }

// Client invokes SOAP operations on WS-Resources. The zero value is not
// usable; construct with NewClient.
//
// Cross-cutting layers — retry, deadline propagation, metrics, request
// correlation — are soap.Interceptors installed with Use; every Invoke
// and SendOneWay traverses the chain before the wire.
type Client struct {
	schemes map[string]RoundTripper
	chain   soap.Chain
	// colocated maps a base URL ("http://host:port") this process serves
	// itself to the in-process delivery for its Server. Read on every
	// call, written when a listener opens and closes.
	colocatedMu sync.RWMutex
	colocated   map[string]*inprocTransport
}

// NewClient builds a client with the http and soap.tcp bindings
// installed. Attach an inproc Network with WithNetwork when simulated
// in-process grids are in play.
func NewClient() *Client {
	c := &Client{schemes: make(map[string]RoundTripper), colocated: make(map[string]*inprocTransport)}
	c.RegisterScheme("http", NewHTTPTransport())
	c.RegisterScheme(SchemeTCP, NewTCPTransport())
	return c
}

// WithNetwork installs the inproc binding backed by n and returns the
// client for chaining.
func (c *Client) WithNetwork(n *Network) *Client {
	c.RegisterScheme(SchemeInproc, &inprocTransport{network: n})
	return c
}

// RegisterScheme installs or replaces the transport for a URI scheme.
func (c *Client) RegisterScheme(scheme string, rt RoundTripper) {
	if scheme == "" || rt == nil {
		panic("transport: RegisterScheme with empty scheme or nil transport")
	}
	c.schemes[scheme] = rt
}

// Colocate routes every call this client makes to an address under one
// of bases — base URLs srv is listening on in this same process — to srv
// in-process. Only this client takes the route: another one in the same
// process still dials. remove takes the route away again, after which a
// call to bases crosses a socket or fails like one.
func (c *Client) Colocate(srv *Server, bases ...string) (remove func()) {
	local := &inprocTransport{server: srv}
	c.colocatedMu.Lock()
	defer c.colocatedMu.Unlock()
	for _, base := range bases {
		c.colocated[base] = local
	}
	return func() {
		c.colocatedMu.Lock()
		defer c.colocatedMu.Unlock()
		for _, base := range bases {
			delete(c.colocated, base)
		}
	}
}

// WrapSchemes replaces every installed transport with wrap(scheme, rt) —
// the hook point for cross-cutting wrappers such as fault injection
// (WrapFaults). A nil return keeps the existing transport. Call during
// wiring, before the client carries traffic; the schemes map is not
// synchronized against in-flight calls. A co-located route (Colocate) is
// not a scheme and is not wrapped.
func (c *Client) WrapSchemes(wrap func(scheme string, rt RoundTripper) RoundTripper) *Client {
	for scheme, rt := range c.schemes {
		if w := wrap(scheme, rt); w != nil {
			c.schemes[scheme] = w
		}
	}
	return c
}

// CloseIdleConnections drops pooled connections on every binding that
// keeps them (soap.tcp, http).
func (c *Client) CloseIdleConnections() {
	for _, rt := range c.schemes {
		if ic, ok := rt.(idleCloser); ok {
			ic.CloseIdleConnections()
		}
	}
}

// Use appends interceptors to the client's invocation pipeline.
// Interceptors installed earlier run outermost; the terminal handler
// stamps WS-Addressing headers, serializes and performs the exchange.
func (c *Client) Use(ics ...soap.Interceptor) {
	c.chain.Use(ics...)
}

func (c *Client) transportFor(addr string) (RoundTripper, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: bad address %q: %w", addr, err)
	}
	c.colocatedMu.RLock()
	local := c.colocated[u.Scheme+"://"+u.Host]
	c.colocatedMu.RUnlock()
	if local != nil {
		return local, nil
	}
	rt, ok := c.schemes[u.Scheme]
	if !ok {
		return nil, fmt.Errorf("transport: no binding for scheme %q (address %q)", u.Scheme, addr)
	}
	return rt, nil
}

// pathOf extracts the service path from a target address for CallInfo.
func pathOf(addr string) string {
	if u, err := url.Parse(addr); err == nil && u.Path != "" {
		return u.Path
	}
	return "/"
}

// newCall describes an outbound invocation for the interceptor chain.
func newCall(to wsa.EndpointReference, action string, env *soap.Envelope, oneWay bool) *soap.CallInfo {
	return &soap.CallInfo{
		Side:    soap.ClientSide,
		Addr:    to.Address,
		Path:    pathOf(to.Address),
		Action:  action,
		OneWay:  oneWay,
		Request: env,
	}
}

// Invoke performs a request-response exchange of a fully prepared
// envelope (custom headers intact), through the interceptor chain.
// WS-Addressing headers for the target and action are stamped in the
// terminal handler (re-stamped per retry attempt, so every attempt
// carries a fresh MessageID). A SOAP fault reply is returned as a
// *soap.Fault error.
func (c *Client) Invoke(ctx context.Context, to wsa.EndpointReference, action string, env *soap.Envelope) (*soap.Envelope, error) {
	terminal := func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return c.roundTrip(ctx, to, call)
	}
	return c.chain.Bind(terminal)(ctx, newCall(to, action, env, false))
}

// outbound is what both terminal handlers do before the wire: pick the
// binding for the target, stamp WS-Addressing and serialize.
func (c *Client) outbound(to wsa.EndpointReference, call *soap.CallInfo) (RoundTripper, *Message, error) {
	rt, err := c.transportFor(to.Address)
	if err != nil {
		return nil, nil, err
	}
	wsa.Apply(call.Request, to, call.Action)
	data, err := call.Request.Marshal()
	if err != nil {
		return nil, nil, err
	}
	return rt, &Message{Envelope: data, Attachments: call.Request.Attachments}, nil
}

// roundTrip is the terminal request-response handler under the chain.
func (c *Client) roundTrip(ctx context.Context, to wsa.EndpointReference, call *soap.CallInfo) (*soap.Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: %s %s: %w", call.Action, to.Address, err)
	}
	rt, request, err := c.outbound(to, call)
	if err != nil {
		return nil, err
	}
	reply, err := rt.RoundTrip(ctx, to.Address, request)
	if err != nil {
		return nil, fmt.Errorf("transport: %s %s: %w", call.Action, to.Address, err)
	}
	resp, err := soap.Unmarshal(reply.Envelope)
	if err != nil {
		return nil, fmt.Errorf("transport: bad response from %s: %w", to.Address, err)
	}
	resp.Attachments = reply.Attachments
	if soap.IsFault(resp.Body) {
		f, perr := soap.ParseFault(resp.Body)
		if perr != nil {
			return nil, perr
		}
		return nil, f
	}
	return resp, nil
}

// Call is the convenience request-response form: wraps body in an
// envelope, invokes, and returns the response body element (nil for a
// void response).
func (c *Client) Call(ctx context.Context, to wsa.EndpointReference, action string, body *xmlutil.Element) (*xmlutil.Element, error) {
	resp, err := c.Invoke(ctx, to, action, soap.New(body))
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// SendOneWay delivers env as a one-way message through the interceptor
// chain: the connection is released as soon as the message is handed
// over and no reply is read.
func (c *Client) SendOneWay(ctx context.Context, to wsa.EndpointReference, action string, env *soap.Envelope) error {
	terminal := func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return nil, c.send(ctx, to, call)
	}
	_, err := c.chain.Bind(terminal)(ctx, newCall(to, action, env, true))
	return err
}

// send is the terminal one-way handler under the chain.
func (c *Client) send(ctx context.Context, to wsa.EndpointReference, call *soap.CallInfo) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: one-way %s %s: %w", call.Action, to.Address, err)
	}
	rt, request, err := c.outbound(to, call)
	if err != nil {
		return err
	}
	if err := rt.Send(ctx, to.Address, request); err != nil {
		return fmt.Errorf("transport: one-way %s %s: %w", call.Action, to.Address, err)
	}
	return nil
}

// Notify is SendOneWay for a bare body element.
func (c *Client) Notify(ctx context.Context, to wsa.EndpointReference, action string, body *xmlutil.Element) error {
	return c.SendOneWay(ctx, to, action, soap.New(body))
}
