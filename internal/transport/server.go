package transport

import (
	"context"
	"log"

	"uvacg/internal/soap"
	"uvacg/internal/warm"
	"uvacg/internal/wsa"
)

// Server hosts SOAP services behind any of the bindings. It owns the
// binding-independent receive pipeline: parse envelope, extract
// WS-Addressing headers, select the service by path, dispatch by action,
// stamp reply headers — the Go rendering of IIS + the WSRF.NET wrapper's
// outer loop (paper Fig. 1).
type Server struct {
	mux *soap.Mux
	// chain runs around every dispatched message, for all hosted
	// services — the server half of the invocation pipeline (deadline
	// re-establishment, request correlation, metrics).
	chain soap.Chain
}

// NewServer wraps a service mux.
func NewServer(mux *soap.Mux) *Server { return &Server{mux: mux} }

// Use appends interceptors to the server's receive pipeline; they run
// for every hosted service, outside any per-dispatcher interceptors.
func (s *Server) Use(ics ...soap.Interceptor) {
	s.chain.Use(ics...)
}

// HandleRequest processes one request-response exchange for the service
// at path, a message on an in-process route, and returns the reply
// (possibly a fault) as a tree the caller owns, its attachments raw.
func (s *Server) HandleRequest(ctx context.Context, path string, request *Message) *Message {
	return s.handle(ctx, path, request, true, readBack)
}

// handle is the request-response exchange, and the one place a reply is
// put in the form its route carries. attach says whether the requester
// takes reply attachments raw or needs them inlined as base64 (HTTP,
// which carries plain SOAP: ServeHTTP, the one caller that passes
// false). encode is marshalExact (HTTP), encodeScratch (a soap.tcp
// frame, whose writer gives the buffer back once the frame is written)
// or readBack (an in-process route).
func (s *Server) handle(ctx context.Context, path string, request *Message, attach bool, encode encoder) *Message {
	resp := s.process(ctx, path, request)
	if !attach {
		resp.InlineAttachments()
	}
	reply, err := encode(resp)
	if err != nil {
		// A reply we constructed failed to serialize: fall back to a
		// minimal fault so the client is never left hanging. A fault's
		// names are fixed and its text is escaped: it encodes.
		reply, _ = encode(soap.ReceiverFault("response serialization failed: %v", err).Envelope())
	}
	return reply
}

// HandleOneWay takes a one-way message for the service at path. It
// parses the envelope and finds its service on the caller's goroutine,
// and the caller answers with what it returns: nil when the message was
// taken (a receipt, HTTP's 202), or the Sender fault of a message that
// does not parse or names no service, in the form the message came in
// (bytes or a tree), which the sender's Send returns.
// Dispatch proceeds on a warm goroutine, detached from the caller's
// cancellation; its failures, which have no connection left to report
// on, are logged.
func (s *Server) HandleOneWay(ctx context.Context, path string, request *Message) *Message {
	in, fault := s.parse(path, request)
	if fault != nil {
		encode := marshalExact
		if request.Tree != nil {
			encode = readBack
		}
		// A fault's names are fixed and its text is escaped: it encodes.
		answer, _ := encode(fault.Envelope())
		return answer
	}
	// The sender has gone away by design.
	bg := context.WithoutCancel(ctx)
	warm.Go(func() {
		defer func() {
			if r := recover(); r != nil {
				log.Printf("transport: one-way handler panic on %s: %v", path, r)
			}
		}()
		resp := s.dispatch(bg, in, true)
		if soap.IsFault(resp.Body) {
			if f, err := soap.ParseFault(resp.Body); err == nil {
				log.Printf("transport: one-way %s faulted: %v", path, f)
			}
		}
	})
	return nil
}

// inbound is a parsed message and the service it is for.
type inbound struct {
	path       string
	env        *soap.Envelope
	info       wsa.MessageInfo
	dispatcher *soap.Dispatcher
}

// parse is the receive pipeline up to dispatch: envelope, WS-Addressing
// headers, service. A message that fails it gets the Sender fault.
func (s *Server) parse(path string, request *Message) (*inbound, *soap.Fault) {
	env, err := request.open()
	if err != nil {
		return nil, soap.SenderFault("malformed envelope: %v", err)
	}
	info, err := wsa.Extract(env)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	dispatcher, ok := s.mux.Lookup(path)
	if !ok {
		return nil, soap.SenderFault("no service at %q", path)
	}
	return &inbound{path: path, env: env, info: info, dispatcher: dispatcher}, nil
}

// process runs the full receive pipeline and always produces a reply
// envelope (faults included). Reply attachments, if any, are left on
// the envelope for the caller to carry, or inline (handle).
func (s *Server) process(ctx context.Context, path string, request *Message) *soap.Envelope {
	in, fault := s.parse(path, request)
	if fault != nil {
		return fault.Envelope()
	}
	return s.dispatch(ctx, in, false)
}

// dispatch runs a parsed message through the server chain and its
// service, and stamps the reply's WS-Addressing headers — unless the
// message is one-way: HandleOneWay only reads a one-way's reply for a
// fault to log, so a stamp would be a MessageID and three headers made
// for nobody.
func (s *Server) dispatch(ctx context.Context, in *inbound, oneWay bool) *soap.Envelope {
	ctx = wsa.NewContext(ctx, in.info)
	call := &soap.CallInfo{
		Side:    soap.ServerSide,
		Path:    in.path,
		Action:  in.info.Action,
		OneWay:  oneWay,
		Request: in.env,
	}
	out, err := s.chain.Bind(func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return in.dispatcher.DispatchCall(ctx, call)
	})(ctx, call)
	var resp *soap.Envelope
	switch {
	case err != nil:
		resp = soap.FaultFromError(err).Envelope()
	case out == nil:
		resp = &soap.Envelope{} // empty-body void response
	default:
		resp = out
	}
	if !oneWay {
		wsa.ApplyReply(resp, in.info, in.info.Action+"Response")
	}
	return resp
}
