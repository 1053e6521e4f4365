package transport

import (
	"context"
	"fmt"
	"net/url"
	"sync"
)

// SchemeInproc is the URI scheme of the in-process binding used by
// simulated grids, tests and benchmarks. Messages still pass through
// their full wire encoding, so a service behaves identically whether
// reached via inproc://, http:// or soap.tcp://.
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

// URL builds an inproc address for a service path on a host.
func (n *Network) URL(host, path string) string {
	return SchemeInproc + "://" + host + path
}

// inprocTransport is the one in-process delivery: behind inproc:// it
// resolves the host on a Network, behind a co-located route
// (Client.Colocate) every address is server's.
type inprocTransport struct {
	network *Network
	server  *Server
}

// wireContext is what a socket would leave of the caller's context: it
// ends when the caller's does and carries none of its values (no
// principal, no invocation, no request ID except through the headers).
type wireContext struct{ context.Context }

func (wireContext) Value(any) any { return nil }

// resolve finds the server and service path for addr, refusing a request
// over the envelope bound as a reader on a socket would.
func (t *inprocTransport) resolve(addr string, request []byte) (*Server, string, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return nil, "", err
	}
	if err := bounded(request); err != nil {
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

// RoundTrip implements RoundTripper: the envelope still round-trips its
// wire encoding, but attachment bytes pass by reference — the in-process
// analog of the binary fast path. Senders and receivers both treat
// attachment data as immutable (soap.Attach, ContentBytes), so sharing is
// safe; a receiver that keeps the bytes beyond the exchange copies them
// (the FSS Write action does).
func (t *inprocTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	srv, path, err := t.resolve(addr, request.Envelope)
	if err != nil {
		return nil, err
	}
	reply := srv.HandleRequest(wireContext{ctx}, path, request)
	return reply, bounded(reply.Envelope)
}

// Send implements RoundTripper. HandleOneWay detaches the dispatch from
// the caller's cancellation and runs it on its own goroutine.
func (t *inprocTransport) Send(ctx context.Context, addr string, request *Message) error {
	srv, path, err := t.resolve(addr, request.Envelope)
	if err != nil {
		return err
	}
	srv.HandleOneWay(wireContext{ctx}, path, request)
	return nil
}
