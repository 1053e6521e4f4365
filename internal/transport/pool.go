package transport

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"time"
)

// pooledConn is one persistent soap.tcp connection together with its
// buffered reader/writer, which stay attached for the connection's
// lifetime so buffer allocation is paid once per connection, not per
// exchange.
type pooledConn struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	fw        *frameWriter
	idleSince time.Time
	// reused marks a connection checked out of the pool (as opposed to
	// freshly dialed): an I/O failure on a reused connection is assumed
	// stale (the peer closed it while idle) and retried on a fresh dial.
	reused bool
}

func newPooledConn(conn net.Conn) *pooledConn {
	pc := &pooledConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	pc.fw = newFrameWriter(pc.bw, conn)
	return pc
}

func (pc *pooledConn) Close() error { return pc.conn.Close() }

// The pool keeps at most maxIdlePerHost idle connections per host:port
// and discards one that has sat idle longer than idleTimeout. The cap is
// the HTTP binding's MaxIdleConnsPerHost: a node staging a 64-wide set
// from one file server, or a master dispatching one to a node, keeps
// every connection it had to open instead of redialling most of them.
const (
	maxIdlePerHost = 64
	idleTimeout    = 60 * time.Second
)

// connPool keeps idle soap.tcp connections per host:port for reuse, the
// analog of net/http's Transport pooling that the framed binding lacked
// — every message used to pay a fresh dial (E6). Its hosts are also the
// ports a client sends http:// messages as frames (routeFor): each
// answered a frame exchange or announced its frames (learn). A host is
// reached through a pointer, so the map is written only when a host is
// first seen: a map assignment stores its key, and the hostport a
// message hands in points into that message's address.
type connPool struct {
	mu    sync.RWMutex
	hosts map[string]*poolHost
	swept time.Time // when every host last lost its expired connections
}

// poolHost is one host:port's idle connections and when it was last
// learned or checked out of.
type poolHost struct {
	idle []*pooledConn
	used time.Time
}

// host is hostport's entry, made under a copy of the key if new; the
// caller holds p.mu.
func (p *connPool) host(hostport string) *poolHost {
	if h := p.hosts[hostport]; h != nil {
		return h
	}
	if p.hosts == nil {
		p.hosts = make(map[string]*poolHost)
	}
	h := &poolHost{}
	p.hosts[strings.Clone(hostport)] = h
	return h
}

// learn enters hostport, whose HTTP answer announced its own frames.
func (p *connPool) learn(hostport string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.host(hostport).used = time.Now()
}

// learned reports whether hostport takes frames: the pool holds it.
func (p *connPool) learned(hostport string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.hosts[hostport] != nil
}

// forget drops hostport and closes its idle connections.
func (p *connPool) forget(hostport string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h := p.hosts[hostport]; h != nil {
		for _, pc := range h.idle {
			pc.Close()
		}
		delete(p.hosts, hostport)
	}
}

// get pops the most recently used idle connection for hostport, dropping
// any that have sat idle past idleTimeout. Returns nil when none is usable.
func (p *connPool) get(hostport string) *pooledConn {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.hosts[hostport]
	if h == nil {
		return nil
	}
	h.used = now
	for len(h.idle) > 0 {
		pc := h.idle[len(h.idle)-1]
		h.idle[len(h.idle)-1] = nil
		h.idle = h.idle[:len(h.idle)-1]
		if now.Sub(pc.idleSince) > idleTimeout {
			pc.Close()
			continue
		}
		pc.reused = true
		return pc
	}
	return nil
}

// put returns a healthy connection to the pool, closing it instead when
// the per-host cap is reached. Expired siblings are pruned on the way,
// and at most once per idleTimeout so are every other host's: a peer
// that is never addressed again (a departed gridsub's file server) would
// otherwise keep its connections open, and its entry, for the life of
// the process.
func (p *connPool) put(hostport string, pc *pooledConn) {
	// Clear any exchange deadline so the idle connection cannot poison
	// the next checkout.
	pc.conn.SetDeadline(time.Time{})
	now := time.Now()
	pc.idleSince = now
	p.mu.Lock()
	defer p.mu.Unlock()
	if now.Sub(p.swept) > idleTimeout {
		p.sweep(now)
	}
	h := p.host(hostport)
	h.idle = prune(h.idle, now)
	if len(h.idle) >= maxIdlePerHost {
		pc.Close()
		return
	}
	h.idle = append(h.idle, pc)
}

// sweep closes every host's connections idle past idleTimeout and
// forgets the hosts left with none and not learned or checked out of
// within idleTimeout either.
func (p *connPool) sweep(now time.Time) {
	for hostport, h := range p.hosts {
		if h.idle = prune(h.idle, now); len(h.idle) == 0 && now.Sub(h.used) > idleTimeout {
			delete(p.hosts, hostport)
		}
	}
	p.swept = now
}

// prune closes the connections in list idle past idleTimeout and
// returns the rest, in order, in list's array. The slots it vacates are
// cleared, so a closed connection's buffers are not kept reachable.
func prune(list []*pooledConn, now time.Time) []*pooledConn {
	kept := list[:0]
	for _, pc := range list {
		if now.Sub(pc.idleSince) > idleTimeout {
			pc.Close()
			continue
		}
		kept = append(kept, pc)
	}
	clear(list[len(kept):])
	return kept
}

// closeIdle drops every pooled connection and forgets every host, learned
// ones too.
func (p *connPool) closeIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for hostport, h := range p.hosts {
		for _, pc := range h.idle {
			pc.Close()
		}
		delete(p.hosts, hostport)
	}
}
