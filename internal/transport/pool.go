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
// — every message used to pay a fresh dial (E6). A host's list is
// reached through a pointer, so the map is written only when a host is
// first seen: a map assignment stores its key, and the hostport a
// message hands in points into that message's address.
type connPool struct {
	mu    sync.Mutex
	idle  map[string]*[]*pooledConn
	swept time.Time // when every host last lost its expired connections
}

// get pops the most recently used idle connection for hostport, dropping
// any that have sat idle past idleTimeout. Returns nil when none is usable.
func (p *connPool) get(hostport string) *pooledConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[hostport]
	if list == nil {
		return nil
	}
	for len(*list) > 0 {
		pc := (*list)[len(*list)-1]
		(*list)[len(*list)-1] = nil
		*list = (*list)[:len(*list)-1]
		if time.Since(pc.idleSince) > idleTimeout {
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
// otherwise keep its connections open for the life of the process.
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
	list := p.idle[hostport]
	if list == nil {
		if p.idle == nil {
			p.idle = make(map[string]*[]*pooledConn)
		}
		list = new([]*pooledConn)
		p.idle[strings.Clone(hostport)] = list
	}
	kept := prune(*list, now)
	if len(kept) >= maxIdlePerHost {
		pc.Close()
		*list = kept
		return
	}
	*list = append(kept, pc)
}

// sweep closes every host's connections idle past idleTimeout and
// forgets the hosts left with none.
func (p *connPool) sweep(now time.Time) {
	for host, list := range p.idle {
		if *list = prune(*list, now); len(*list) == 0 {
			delete(p.idle, host)
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

// closeIdle drops every pooled connection.
func (p *connPool) closeIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for host, list := range p.idle {
		for _, pc := range *list {
			pc.Close()
		}
		delete(p.idle, host)
	}
}
