package soap

import (
	"context"
	"sync"
)

// Side distinguishes the two ends of an invocation traversing the
// interceptor pipeline.
type Side int

const (
	// ClientSide marks a call leaving through a transport client.
	ClientSide Side = iota
	// ServerSide marks a call arriving at a transport server.
	ServerSide
)

// String names the side for diagnostics.
func (s Side) String() string {
	if s == ClientSide {
		return "client"
	}
	return "server"
}

// CallInfo describes one invocation as it traverses the interceptor
// chain — the shared vocabulary of the client and server pipelines
// (the per-invocation wrapper of paper Fig. 1, generalized so
// cross-cutting layers hang off one abstraction on both ends).
//
// Interceptors may mutate Request (add headers) before calling next;
// the transport stamps WS-Addressing headers and serializes only in
// the terminal handler, so mutations made anywhere in the chain reach
// the wire.
type CallInfo struct {
	// Side says whether this chain runs on the client or the server.
	Side Side
	// Addr is the full target address (client side only).
	Addr string
	// Path is the service path ("/SchedulerService"). On the client it
	// is derived from the target address; on the server it is the mux
	// path the message arrived at.
	Path string
	// Action is the WS-Addressing action URI.
	Action string
	// OneWay marks a one-way message: no reply envelope ever exists.
	OneWay bool
	// Request is the envelope being sent (client) or received (server).
	Request *Envelope
}

// Handler continues a call: the next interceptor, or the terminal
// transport/dispatch step. One-way calls return a nil envelope.
type Handler func(ctx context.Context, call *CallInfo) (*Envelope, error)

// Interceptor is one layer of the invocation pipeline, used
// symmetrically by transport clients and servers: observe or rewrite
// the call, then delegate to next (possibly more than once — retry —
// or not at all — short-circuit faults).
type Interceptor func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error)

// Chain is an ordered interceptor list. Interceptors added earlier run
// outermost. The zero value is an empty, usable chain; Use may be
// called concurrently with Bind.
type Chain struct {
	mu   sync.RWMutex
	list []Interceptor
}

// Use appends interceptors to the chain.
func (c *Chain) Use(ics ...Interceptor) {
	for _, ic := range ics {
		if ic == nil {
			panic("soap: Use with nil interceptor")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.list = append(c.list, ics...)
}

// Bind composes the chain's current interceptors around a terminal
// handler. An empty chain returns the terminal handler itself.
func (c *Chain) Bind(terminal Handler) Handler {
	c.mu.RLock()
	ics := c.list
	c.mu.RUnlock()
	h := terminal
	for i := len(ics) - 1; i >= 0; i-- {
		ic := ics[i]
		inner := h
		h = func(ctx context.Context, call *CallInfo) (*Envelope, error) {
			return ic(ctx, call, inner)
		}
	}
	return h
}
