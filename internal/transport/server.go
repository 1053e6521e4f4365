package transport

import (
	"context"
	"log"

	"uvacg/internal/soap"
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

// Mux exposes the underlying service mux for registration.
func (s *Server) Mux() *soap.Mux { return s.mux }

// Use appends interceptors to the server's receive pipeline; they run
// for every hosted service, outside any per-dispatcher interceptors.
func (s *Server) Use(ics ...soap.Interceptor) {
	s.chain.Use(ics...)
}

// HandleRequest processes one request-response exchange for the service
// at path, returning the serialized reply (possibly a fault envelope)
// with its attachments raw.
func (s *Server) HandleRequest(ctx context.Context, path string, request *Message) *Message {
	return s.handle(ctx, path, request, true)
}

// handle is the request-response exchange; attach says whether the
// requester takes reply attachments raw or needs them inlined as base64
// (a plain SOAP requester over HTTP, the one caller that passes false).
func (s *Server) handle(ctx context.Context, path string, request *Message, attach bool) *Message {
	resp := s.process(ctx, path, request, false)
	if !attach {
		resp.InlineAttachments()
	}
	data, err := resp.Marshal()
	if err != nil {
		// A reply we constructed failed to serialize: fall back to a
		// minimal fault so the client is never left hanging.
		data, _ = soap.ReceiverFault("response serialization failed: %v", err).Envelope().Marshal()
		return &Message{Envelope: data}
	}
	return &Message{Envelope: data, Attachments: resp.Attachments}
}

// HandleOneWay accepts a one-way message for the service at path. The
// caller's connection obligation ends as soon as this returns; dispatch
// proceeds asynchronously, and failures — which have no connection left
// to report on — are logged.
func (s *Server) HandleOneWay(ctx context.Context, path string, request *Message) {
	// Detach from the transport's per-connection context: the sender has
	// already gone away by design.
	bg := context.WithoutCancel(ctx)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				log.Printf("transport: one-way handler panic on %s: %v", path, r)
			}
		}()
		resp := s.process(bg, path, request, true)
		if soap.IsFault(resp.Body) {
			if f, err := soap.ParseFault(resp.Body); err == nil {
				log.Printf("transport: one-way %s faulted: %v", path, f)
			}
		}
	}()
}

// process runs the full receive pipeline and always produces a reply
// envelope (faults included). Reply attachments, if any, are left on
// the envelope for the caller to carry, or inline (handle).
func (s *Server) process(ctx context.Context, path string, request *Message, oneWay bool) *soap.Envelope {
	env, err := soap.Unmarshal(request.Envelope)
	if err != nil {
		return soap.SenderFault("malformed envelope: %v", err).Envelope()
	}
	env.Attachments = request.Attachments
	info, err := wsa.Extract(env)
	if err != nil {
		return soap.SenderFault("%v", err).Envelope()
	}
	dispatcher, ok := s.mux.Lookup(path)
	if !ok {
		return soap.SenderFault("no service at %q", path).Envelope()
	}
	ctx = wsa.NewContext(ctx, info)
	call := &soap.CallInfo{
		Side:    soap.ServerSide,
		Path:    path,
		Action:  info.Action,
		OneWay:  oneWay,
		Request: env,
	}
	out, err := s.chain.Bind(func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return dispatcher.DispatchCall(ctx, call)
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
	wsa.ApplyReply(resp, info, info.Action+"Response")
	return resp
}
