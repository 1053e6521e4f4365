// Package transport carries SOAP envelopes between services. Three
// bindings are provided, selected by the URI scheme of the target EPR's
// address, mirroring the paper's testbed:
//
//	http://     the ordinary web service binding (IIS/ASP.NET analog):
//	            plain SOAP both ways, binary content inline as base64
//	soap.tcp:// framed SOAP over raw TCP (the WSE messaging analog used
//	            for large file movement from the client's machine)
//	inproc://   in-process loopback: the receiver is handed its own copy
//	            of the envelope tree, the tree a reader on a socket would
//	            decode from the envelope's encoding
//
// A process never opens a socket to itself: a Client told (Colocate) that
// a base URL is served by a Server in its own process hands messages for
// it to that server the way inproc:// does — the same copy, the same
// client and server interceptor chains, no socket.
//
// A Listener serves both networked bindings on one port and says so in
// every HTTP answer (Alt-Svc: soap.tcp=":<port>"). A Client that reads
// that sends every later message for the same host:port as frames, until
// a frame exchange there fails: an http:// EPR costs one HTTP exchange per
// process and port, and the scheme an EPR names picks no binding.
//
// The package distinguishes request-response calls from one-way messages:
// a one-way send completes as soon as the receiving server has taken the
// message (HTTP's 202, a soap.tcp receipt frame), before the service has
// processed it — the property the File System Service depends on for
// non-blocking uploads (paper §4.1).
package transport

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sync"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// Message is an envelope plus its binary attachments — the unit every
// binding moves, keeping file bytes out of the XML (no base64 inflation,
// no escaping scan). On a socket route the envelope is its encoding
// (Envelope); on an in-process route it is a tree (Tree), never both. A
// request's tree is the sender's, and the in-process binding hands each
// delivery a copy of its own; a reply's tree is already the receiver's.
type Message struct {
	Envelope    []byte
	Tree        *soap.Envelope
	Attachments []soap.Attachment
	// size is the length of Tree's encoding, which the receiver holds to
	// the envelope bound.
	size int
	// scratch is the pooled buffer Envelope was encoded into, until
	// release gives it back.
	scratch *[]byte
}

// open returns the envelope m carries, its attachments on it: the tree
// an in-process route handed over, or the bytes a socket carried,
// decoded.
func (m *Message) open() (*soap.Envelope, error) {
	env := m.Tree
	if env == nil {
		var err error
		if env, err = soap.Unmarshal(m.Envelope); err != nil {
			return nil, err
		}
	}
	env.Attachments = m.Attachments
	return env, nil
}

// release gives back the scratch m's envelope was encoded into, if any,
// once its frame has been written: nothing reads the bytes again.
func (m *Message) release() {
	if m != nil && m.scratch != nil {
		xmlutil.ReleaseScratch(m.scratch, m.Envelope)
		m.scratch = nil
	}
}

// encoder puts an envelope in the form its route carries: marshalExact,
// encodeScratch or readBack.
type encoder func(*soap.Envelope) (*Message, error)

// marshalExact is Marshal's exact-length copy, the bytes net/http may
// read after its exchange and a wrapped binding may keep.
func marshalExact(env *soap.Envelope) (*Message, error) {
	data, err := env.Marshal()
	return &Message{Envelope: data, Attachments: env.Attachments}, err
}

// encodeScratch encodes env into pooled scratch, for a soap.tcp frame:
// the writer gives it back (release) once the frame is written.
func encodeScratch(env *soap.Envelope) (*Message, error) {
	data, bp, err := env.MarshalScratch()
	return &Message{Envelope: data, Attachments: env.Attachments, scratch: bp}, err
}

// readBack is what an in-process receiver is handed for env: a tree of
// its own, as a reader would decode env's encoding, and that encoding's
// length.
func readBack(env *soap.Envelope) (*Message, error) {
	tree, size, err := env.ReadBack()
	return &Message{Tree: tree, Attachments: env.Attachments, size: size}, err
}

// RoundTripper moves messages for one URI scheme, attachments raw in both
// directions.
type RoundTripper interface {
	// RoundTrip performs a request-response exchange.
	RoundTrip(ctx context.Context, addr string, request *Message) (response *Message, err error)
	// Send delivers a one-way message, returning once the receiving
	// server has taken it.
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
	// routesMu guards colocated, read on every call.
	routesMu sync.RWMutex
	// colocated maps a base URL ("http://host:port") this process serves
	// itself to the in-process delivery for its Server; written when a
	// listener opens and closes.
	colocated map[string]*inprocTransport
	// frames is the pool of the soap.tcp binding NewClient installed: a
	// message for http://host:port goes as frames while it holds the host,
	// entered when the port's HTTP answer announced them (Alt-Svc).
	frames *connPool
	// asker is the http binding that learns ports.
	asker *HTTPTransport
}

// NewClient builds a client with the http and soap.tcp bindings
// installed, the first learning which ports take the second. Attach an
// inproc Network with WithNetwork when simulated in-process grids are in
// play.
func NewClient() *Client {
	tcp := NewTCPTransport()
	c := &Client{
		schemes:   make(map[string]RoundTripper),
		colocated: make(map[string]*inprocTransport),
		frames:    &tcp.pool,
		asker:     NewHTTPTransport(),
	}
	c.asker.learn = c.frames.learn
	c.RegisterScheme("http", c.asker)
	c.RegisterScheme(SchemeTCP, tcp)
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
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	for _, base := range bases {
		c.colocated[base] = local
	}
	return func() {
		c.routesMu.Lock()
		defer c.routesMu.Unlock()
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
// not a scheme and is not wrapped; a learned port's frames go through
// the soap.tcp scheme's transport, wrapped or not.
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

// address is an outbound address, parsed once a message for the
// client's own use: its path for CallInfo, its scheme and host for
// routeFor. A binding parses the address string it is handed. No parse
// is kept beyond its message: addresses arrive in peers' EPRs, so a
// cache of them would grow without bound.
type address struct {
	raw, scheme, host, path string
	// err is a parse failure, which the terminal handler returns.
	err error
}

func parseAddress(raw string) address {
	u, err := url.Parse(raw)
	if err != nil {
		return address{raw: raw, path: "/", err: fmt.Errorf("transport: bad address %q: %w", raw, err)}
	}
	path := u.Path
	if path == "" {
		path = "/"
	}
	return address{raw: raw, scheme: u.Scheme, host: u.Host, path: path}
}

// route is where one message goes: the binding, the address handed to
// it, the learned port it goes to as frames ("" when none), whether it
// is plain HTTP, which carries attachment parts inline, and whether it
// stays in the process (inproc:// or co-located), which carries trees.
type route struct {
	rt      RoundTripper
	addr    string
	learned string
	inline  bool
	local   bool
}

// failed forgets r's learned port, and with it the port's idle frame
// connections, so the next message for it asks over HTTP again: the port
// may have gone, or come back without frames. Unless
// the caller's own context ended the exchange, the keep-alive connections
// the asking left idle go too, to every host (net/http closes no fewer): a
// peer that went has closed its end, and a reader that has not yet seen
// the close would hand the next POST a connection that answers EOF.
func (c *Client) failed(ctx context.Context, r route) {
	if r.learned == "" {
		return
	}
	c.frames.forget(r.learned)
	if ctx.Err() == nil {
		c.asker.CloseIdleConnections()
	}
}

// routeFor picks a's route: the co-located server first, then a learned
// port's frames, then the binding of a's scheme — plain HTTP for an
// http:// port not learned, or one behind NewHTTPHandler.
func (c *Client) routeFor(a address) (route, error) {
	if a.err != nil {
		return route{}, a.err
	}
	c.routesMu.RLock()
	local := c.colocated[a.scheme+"://"+a.host]
	c.routesMu.RUnlock()
	if local != nil {
		return route{rt: local, addr: a.raw, local: true}, nil
	}
	if tcp, ok := c.schemes[SchemeTCP]; ok && a.scheme == "http" && c.frames.learned(a.host) {
		return route{rt: tcp, addr: SchemeTCP + a.raw[len(a.scheme):], learned: a.host}, nil
	}
	rt, ok := c.schemes[a.scheme]
	if !ok {
		return route{}, fmt.Errorf("transport: no binding for scheme %q (address %q)", a.scheme, a.raw)
	}
	return route{rt: rt, addr: a.raw, inline: a.scheme == "http", local: a.scheme == SchemeInproc}, nil
}

// newCall describes an outbound invocation for the interceptor chain.
func newCall(to address, action string, env *soap.Envelope, oneWay bool) *soap.CallInfo {
	return &soap.CallInfo{
		Side:    soap.ClientSide,
		Addr:    to.raw,
		Path:    to.path,
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
	addr := parseAddress(to.Address)
	terminal := func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return c.roundTrip(ctx, to, addr, call)
	}
	return c.chain.Bind(terminal)(ctx, newCall(addr, action, env, false))
}

// outbound is what both terminal handlers do before the wire: pick the
// route for the target, stamp WS-Addressing and serialize. An in-process
// route carries the caller's tree, which its binding copies per delivery
// (readBack). On plain HTTP the parts go inline as base64 into a copy:
// the caller's envelope keeps them, for a retry that may find the port's
// frames. A frame is encoded into pooled scratch, which the caller gives
// back (Message.release) once the exchange is over; any other bytes are
// an exact copy, which net/http may read after its exchange has returned
// and a wrapped binding may keep.
func (c *Client) outbound(to wsa.EndpointReference, addr address, call *soap.CallInfo) (route, *Message, error) {
	r, err := c.routeFor(addr)
	if err != nil {
		return route{}, nil, err
	}
	wsa.Apply(call.Request, to, call.Action)
	env := call.Request
	if r.local {
		return r, &Message{Tree: env, Attachments: env.Attachments}, nil
	}
	if r.inline && len(env.Attachments) > 0 {
		env = env.Clone()
		env.InlineAttachments()
	}
	encode := marshalExact
	if _, frames := r.rt.(*TCPTransport); frames {
		encode = encodeScratch
	}
	request, err := encode(env)
	if err != nil {
		return route{}, nil, err
	}
	return r, request, nil
}

// roundTrip is the terminal request-response handler under the chain.
func (c *Client) roundTrip(ctx context.Context, to wsa.EndpointReference, addr address, call *soap.CallInfo) (*soap.Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: %s %s: %w", call.Action, to.Address, err)
	}
	r, request, err := c.outbound(to, addr, call)
	if err != nil {
		return nil, err
	}
	reply, err := r.rt.RoundTrip(ctx, r.addr, request)
	request.release()
	if err != nil {
		c.failed(ctx, r)
		return nil, fmt.Errorf("transport: %s %s: %w", call.Action, to.Address, err)
	}
	resp, err := reply.open()
	if err != nil {
		return nil, fmt.Errorf("transport: bad response from %s: %w", to.Address, err)
	}
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
// chain: it returns once the receiving server has taken the message, and
// no reply is read.
func (c *Client) SendOneWay(ctx context.Context, to wsa.EndpointReference, action string, env *soap.Envelope) error {
	addr := parseAddress(to.Address)
	terminal := func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return nil, c.send(ctx, to, addr, call)
	}
	_, err := c.chain.Bind(terminal)(ctx, newCall(addr, action, env, true))
	return err
}

// send is the terminal one-way handler under the chain.
func (c *Client) send(ctx context.Context, to wsa.EndpointReference, addr address, call *soap.CallInfo) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: one-way %s %s: %w", call.Action, to.Address, err)
	}
	r, request, err := c.outbound(to, addr, call)
	if err != nil {
		return err
	}
	err = r.rt.Send(ctx, r.addr, request)
	request.release()
	if err != nil {
		var f *soap.Fault
		if errors.As(err, &f) {
			return f // the port answered: what it said is the error
		}
		c.failed(ctx, r)
		return fmt.Errorf("transport: one-way %s %s: %w", call.Action, to.Address, err)
	}
	return nil
}

// refusal is the error of a one-way message answered by a message
// instead of a receipt: the fault it carries, the one reply a one-way
// message may get.
func refusal(answer *Message) error {
	env, err := answer.open()
	if err != nil {
		return fmt.Errorf("transport: bad answer to a one-way message: %w", err)
	}
	if !soap.IsFault(env.Body) {
		return fmt.Errorf("transport: a one-way message was answered by a reply that is not a fault")
	}
	f, err := soap.ParseFault(env.Body)
	if err != nil {
		return err
	}
	return f
}

// Notify is SendOneWay for a bare body element.
func (c *Client) Notify(ctx context.Context, to wsa.EndpointReference, action string, body *xmlutil.Element) error {
	return c.SendOneWay(ctx, to, action, soap.New(body))
}
