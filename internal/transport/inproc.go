package transport

import (
	"context"
	"fmt"
	"net/url"
	"sync"
)

// SchemeInproc is the URI scheme of the in-process binding used by
// simulated grids, tests and benchmarks. A receiver is handed the tree a
// reader would decode from the message's encoding, held to the same
// envelope bound, so a service behaves identically whether reached via
// inproc://, http:// or soap.tcp://.
const SchemeInproc = "inproc"

// Network is an in-process fabric of named hosts. Each simulated grid
// machine registers its Server under a host name; EPR addresses look
// like inproc://node-a/ExecutionService.
type Network struct {
	mu    sync.RWMutex
	hosts map[string]*Server
}

// NewNetwork creates an empty fabric.
func NewNetwork() *Network { return &Network{hosts: make(map[string]*Server)} }

// Register binds a host name to a server. Re-registering a host panics;
// simulated machines are wired once at grid construction.
func (n *Network) Register(host string, srv *Server) {
	if host == "" || srv == nil {
		panic("transport: Register with empty host or nil server")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[host]; dup {
		panic("transport: duplicate inproc host " + host)
	}
	n.hosts[host] = srv
}

// Deregister removes a host (a machine leaving the simulated grid).
func (n *Network) Deregister(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.hosts, host)
}

// Lookup finds the server for a host.
func (n *Network) Lookup(host string) (*Server, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	srv, ok := n.hosts[host]
	return srv, ok
}

// inprocTransport is the one in-process delivery: behind inproc:// it
// resolves the host on a Network, behind a co-located route
// (Client.Colocate) every address is server's.
type inprocTransport struct {
	network *Network
	server  *Server
}

// wireContext is what a socket would leave of the caller's context: it
// ends when the caller's does and carries none of its values (no request
// ID except through the headers).
type wireContext struct{ context.Context }

func (wireContext) Value(any) any { return nil }

// resolve finds the server and service path for addr.
func (t *inprocTransport) resolve(addr string) (*Server, string, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return nil, "", err
	}
	srv := t.server
	if srv == nil {
		if t.network == nil {
			return nil, "", fmt.Errorf("transport: inproc binding has no network")
		}
		var ok bool
		if srv, ok = t.network.Lookup(u.Host); !ok {
			return nil, "", fmt.Errorf("transport: unknown inproc host %q", u.Host)
		}
	}
	path := u.Path
	if path == "" {
		path = "/"
	}
	return srv, path, nil
}

// deliver finds the server for addr and makes what it is handed for
// request: a tree of its own, made per delivery (a message delivered
// twice is two trees), refused as a reader on a socket refuses an
// envelope over the bound. Attachment bytes pass by reference — the
// in-process analog of the binary fast path. Senders and receivers both
// treat attachment data as immutable (soap.Attach, ContentBytes), so
// sharing is safe; a receiver that keeps the bytes beyond the exchange
// copies them (the FSS Write action does).
func (t *inprocTransport) deliver(addr string, request *Message) (*Server, string, *Message, error) {
	srv, path, err := t.resolve(addr)
	if err != nil {
		return nil, "", nil, err
	}
	if request.Tree == nil {
		return nil, "", nil, fmt.Errorf("transport: an in-process route carries envelope trees, not bytes")
	}
	in, err := readBack(request.Tree)
	if err != nil {
		return nil, "", nil, err
	}
	in.Attachments = request.Attachments
	return srv, path, in, bounded(int64(in.size))
}

// RoundTrip implements RoundTripper. The reply is the caller's own tree
// already (Server.HandleRequest), held to the bound on the way back.
func (t *inprocTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	srv, path, in, err := t.deliver(addr, request)
	if err != nil {
		return nil, err
	}
	reply := srv.HandleRequest(wireContext{ctx}, path, in)
	return reply, bounded(int64(reply.size))
}

// Send implements RoundTripper. HandleOneWay parses the message on this
// goroutine, as a listener does before its receipt, then detaches the
// dispatch from the caller's cancellation and runs it on a warm one.
func (t *inprocTransport) Send(ctx context.Context, addr string, request *Message) error {
	srv, path, in, err := t.deliver(addr, request)
	if err != nil {
		return err
	}
	if answer := srv.HandleOneWay(wireContext{ctx}, path, in); answer != nil {
		return refusal(answer)
	}
	return nil
}
